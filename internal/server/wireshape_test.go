package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/declog"
)

var update = flag.Bool("update", false, "rewrite testdata/wireshape.golden")

// TestWireShapeGolden pins the shape of the two observability documents
// with ingest and the decision log enabled: every /v1/statsz key path with
// its JSON type, and every /v1/metrics HELP/TYPE line and series (name and
// label set), values masked. A renamed, dropped or re-typed key or series
// fails here; an added one needs -update and shows as added lines in the
// golden's diff.
func TestWireShapeGolden(t *testing.T) {
	logger, err := declog.New(declog.Config{Sink: &collectSink{}, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	eng, err := memes.NewEngine(t.Context(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	snap := saveSnapshot(t, eng)
	srv, err := New(Config{
		Loader: func() (*memes.Engine, error) {
			return memes.LoadEngineFile(snap, site, memes.WithDataset(ds))
		},
		Ingest: func(hot *memes.HotEngine) (*memes.Ingestor, error) {
			return memes.NewIngestor(hot, ds, site, memes.IngestConfig{Threshold: 64})
		},
		DecisionLog: logger,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	e := &testEnv{ds: ds, eng: eng, srv: srv, ts: ts}

	code, statsz := e.do(t, http.MethodGet, "/v1/statsz", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	code, expo := e.do(t, http.MethodGet, "/v1/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var doc any
	if err := json.Unmarshal(statsz, &doc); err != nil {
		t.Fatalf("decoding statsz: %v", err)
	}
	shape := map[string]bool{}
	jsonPaths("statsz ", doc, shape)
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] // mask the value
		}
		shape["metrics "+line] = true
	}
	// Sorted, so the golden pins names, types and label sets but not the
	// order a document happens to list them in.
	lines := make([]string, 0, len(shape))
	for l := range shape {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	var got bytes.Buffer
	for _, l := range lines {
		fmt.Fprintln(&got, l)
	}

	golden := filepath.Join("testdata", "wireshape.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire shape differs from %s (regenerate with -update and review the diff):\n%s", golden, lineDiff(string(want), got.String()))
	}
}

// jsonPaths records the dotted key path and JSON type of every leaf of a
// decoded document under prefix; array elements share the path suffix "[]".
func jsonPaths(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			if !strings.HasSuffix(prefix, " ") {
				k = "." + k
			}
			jsonPaths(prefix+k, child, into)
		}
	case []any:
		into[prefix+" array"] = true
		for _, child := range v {
			jsonPaths(prefix+"[]", child, into)
		}
	case string:
		into[prefix+" string"] = true
	case float64:
		into[prefix+" number"] = true
	case bool:
		into[prefix+" bool"] = true
	case nil:
		into[prefix+" null"] = true
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// testEnv is one served snapshot: the reference engine the snapshot was
// built from, the Server loading it, and an httptest front.
type testEnv struct {
	ds  *memes.Dataset
	eng *memes.Engine // the original build, for reference answers
	srv *Server
	ts  *httptest.Server

	// failLoads makes the loader error on its next calls — the lever the
	// reload-failure tests pull.
	failLoads atomic.Bool
}

func newTestEnv(t *testing.T) *testEnv { return newTestEnvCfg(t, nil) }

// newTestEnvCfg is newTestEnv with a hook to adjust the server Config (set
// MaxInFlight, RequestTimeout, …) before New runs.
func newTestEnvCfg(t *testing.T, mut func(*Config)) *testEnv {
	t.Helper()
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
	snap := filepath.Join(t.TempDir(), "engine.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := eng.Save(f); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	env := &testEnv{ds: ds, eng: eng}
	loader := func() (*memes.Engine, error) {
		if env.failLoads.Load() {
			return nil, errors.New("injected loader failure")
		}
		r, err := os.Open(snap)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return memes.LoadEngine(r, site)
	}
	cfg := Config{Loader: loader}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	env.srv, env.ts = srv, ts
	return env
}

// do issues one request and decodes the JSON response into out (if non-nil),
// returning the status code and raw body.
func (e *testEnv) do(t *testing.T, method, path string, body []byte, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest %s %s: %v", method, path, err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// farHash returns a hash no annotated medoid lies within the association
// threshold of, so /v1/match on it must miss.
func farHash(t *testing.T, eng *memes.Engine) memes.Hash {
	t.Helper()
	theta := pipeline.DefaultConfig().AssociationThreshold
	clusters := eng.Clusters()
	for v := uint64(0); v < 1<<20; v++ {
		h := memes.Hash(v)
		far := true
		for i := range clusters {
			if clusters[i].Annotated() && phash.Distance(h, clusters[i].MedoidHash) <= theta {
				far = false
				break
			}
		}
		if far {
			return h
		}
	}
	t.Fatal("no far hash found in 2^20 candidates")
	return 0
}

func TestHealthzAndClusters(t *testing.T) {
	e := newTestEnv(t)
	var health healthResponse
	if code, _ := e.do(t, http.MethodGet, "/v1/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if health.Status != "ok" || health.Generation != 1 {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Clusters != len(e.eng.Clusters()) {
		t.Fatalf("healthz clusters = %d, want %d", health.Clusters, len(e.eng.Clusters()))
	}
	if health.AnnotatedClusters <= 0 || health.AnnotatedClusters > health.Clusters {
		t.Fatalf("healthz annotated_clusters = %d out of range", health.AnnotatedClusters)
	}

	var cl clustersResponse
	if code, _ := e.do(t, http.MethodGet, "/v1/clusters", nil, &cl); code != http.StatusOK {
		t.Fatalf("clusters status = %d", code)
	}
	if len(cl.Clusters) != len(e.eng.Clusters()) {
		t.Fatalf("clusters = %d, want %d", len(cl.Clusters), len(e.eng.Clusters()))
	}
	for i, c := range cl.Clusters {
		want := fmt.Sprintf("%016x", uint64(e.eng.Clusters()[i].MedoidHash))
		if c.MedoidHash != want {
			t.Fatalf("cluster %d medoid_hash = %q, want %q", i, c.MedoidHash, want)
		}
	}
}

// TestMatchAgainstEngine asserts every wire form of /v1/match answers
// exactly what Engine.Match answers for the same hash.
func TestMatchAgainstEngine(t *testing.T) {
	e := newTestEnv(t)
	clusters := e.eng.Clusters()
	for i := range clusters {
		h := clusters[i].MedoidHash
		wantM, wantOK, err := e.eng.Match(t.Context(), h)
		if err != nil {
			t.Fatalf("engine Match: %v", err)
		}
		for _, body := range []string{
			fmt.Sprintf(`{"hash":"%016x"}`, uint64(h)), // hex string
			fmt.Sprintf(`{"hash":"0x%x"}`, uint64(h)),  // 0x-prefixed
			fmt.Sprintf(`{"hash":%d}`, uint64(h)),      // bare integer
		} {
			var got matchResponse
			if code, raw := e.do(t, http.MethodPost, "/v1/match", []byte(body), &got); code != http.StatusOK {
				t.Fatalf("match %s: status %d: %s", body, code, raw)
			}
			if got.Matched != wantOK {
				t.Fatalf("match %s: matched = %v, want %v", body, got.Matched, wantOK)
			}
			if wantOK && (got.ClusterID != wantM.ClusterID || got.Distance != wantM.Distance) {
				t.Fatalf("match %s: (%d,%d), want (%d,%d)", body, got.ClusterID, got.Distance, wantM.ClusterID, wantM.Distance)
			}
			if wantOK && got.Entry != clusters[wantM.ClusterID].EntryName() {
				t.Fatalf("match %s: entry %q, want %q", body, got.Entry, clusters[wantM.ClusterID].EntryName())
			}
		}
	}

	var miss matchResponse
	body := fmt.Sprintf(`{"hash":"%016x"}`, uint64(farHash(t, e.eng)))
	if code, _ := e.do(t, http.MethodPost, "/v1/match", []byte(body), &miss); code != http.StatusOK {
		t.Fatalf("far match status = %d", code)
	}
	if miss.Matched || miss.ClusterID != -1 || miss.Distance != -1 {
		t.Fatalf("far hash matched: %+v", miss)
	}
}

// TestAssociateAgainstEngine asserts /v1/associate over the full corpus
// returns exactly Engine.Associate's output.
func TestAssociateAgainstEngine(t *testing.T) {
	e := newTestEnv(t)
	want, err := e.eng.Associate(t.Context(), e.ds.Posts)
	if err != nil {
		t.Fatalf("engine Associate: %v", err)
	}
	body, err := json.Marshal(struct {
		Posts []memes.Post `json:"posts"`
	}{Posts: e.ds.Posts})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got associateResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/associate", body, &got); code != http.StatusOK {
		t.Fatalf("associate status = %d: %.200s", code, raw)
	}
	if got.Posts != len(e.ds.Posts) || got.Matched != len(want) || len(got.Associations) != len(want) {
		t.Fatalf("associate posts=%d matched=%d len=%d, want posts=%d matched=%d",
			got.Posts, got.Matched, len(got.Associations), len(e.ds.Posts), len(want))
	}
	clusters := e.eng.Clusters()
	for i, a := range got.Associations {
		w := want[i]
		if a.PostIndex != w.PostIndex || a.ClusterID != w.ClusterID || a.Distance != w.Distance {
			t.Fatalf("association %d = %+v, want %+v", i, a, w)
		}
		if a.Entry != clusters[w.ClusterID].EntryName() {
			t.Fatalf("association %d entry = %q, want %q", i, a.Entry, clusters[w.ClusterID].EntryName())
		}
	}
}

// TestMatchImage drives the raw-bytes endpoint through the Step 1 pHash
// path and cross-checks against Engine.MatchImage.
func TestMatchImage(t *testing.T) {
	e := newTestEnv(t)
	img := imaging.Template(1)
	wantM, wantOK, err := e.eng.MatchImage(t.Context(), img)
	if err != nil {
		t.Fatalf("engine MatchImage: %v", err)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatalf("png.Encode: %v", err)
	}
	var got matchResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/match/image", buf.Bytes(), &got); code != http.StatusOK {
		t.Fatalf("match/image status = %d: %s", code, raw)
	}
	if got.Matched != wantOK {
		t.Fatalf("match/image matched = %v, want %v", got.Matched, wantOK)
	}
	if wantOK && (got.ClusterID != wantM.ClusterID || got.Distance != wantM.Distance) {
		t.Fatalf("match/image = (%d,%d), want (%d,%d)", got.ClusterID, got.Distance, wantM.ClusterID, wantM.Distance)
	}
	wantHash, err := memes.HashImage(img)
	if err != nil {
		t.Fatalf("HashImage: %v", err)
	}
	if got.Hash != fmt.Sprintf("%016x", uint64(wantHash)) {
		t.Fatalf("match/image hash = %q, want %016x", got.Hash, uint64(wantHash))
	}
}

func TestBadRequests(t *testing.T) {
	e := newTestEnv(t)
	for _, tc := range []struct {
		method, path string
		body         string
		wantCode     int
	}{
		{http.MethodPost, "/v1/match", `{`, http.StatusBadRequest},
		{http.MethodPost, "/v1/match", `{}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/match", `{"hash":"xyz"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/match", `{"hash":-1}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/match/image", "not an image", http.StatusBadRequest},
		{http.MethodPost, "/v1/associate", `{"posts":`, http.StatusBadRequest},
		{http.MethodGet, "/v1/match", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/healthz", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/nope", "", http.StatusNotFound},
	} {
		var body []byte
		if tc.body != "" {
			body = []byte(tc.body)
		}
		if code, raw := e.do(t, tc.method, tc.path, body, nil); code != tc.wantCode {
			t.Errorf("%s %s %q: status %d, want %d (%s)", tc.method, tc.path, tc.body, code, tc.wantCode, raw)
		}
	}
}

// TestHotReloadZeroDroppedRequests is the PR's acceptance test: concurrent
// /v1/match and /v1/associate traffic runs while /v1/admin/reload swaps the
// snapshot in repeatedly; every request must succeed, and every result must
// be bitwise-identical to the pre-reload baseline.
func TestHotReloadZeroDroppedRequests(t *testing.T) {
	e := newTestEnv(t)

	// The query set: every cluster medoid, a guaranteed miss, and a slice
	// of real post hashes.
	var hashes []memes.Hash
	for _, c := range e.eng.Clusters() {
		hashes = append(hashes, c.MedoidHash)
	}
	hashes = append(hashes, farHash(t, e.eng))
	for i := 0; i < len(e.ds.Posts) && len(hashes) < 80; i++ {
		if e.ds.Posts[i].HasImage {
			hashes = append(hashes, e.ds.Posts[i].PHash())
		}
	}

	assocBody, err := json.Marshal(struct {
		Posts []memes.Post `json:"posts"`
	}{Posts: e.ds.Posts[:500]})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	// Baselines, taken before any reload. Generation is the one field that
	// legitimately changes across a swap; everything else must be bitwise
	// stable.
	matchBaseline := make(map[memes.Hash]matchResponse, len(hashes))
	for _, h := range hashes {
		var m matchResponse
		if code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &m); code != http.StatusOK {
			t.Fatalf("baseline match: status %d: %s", code, raw)
		}
		m.Generation = 0
		matchBaseline[h] = m
	}
	var assocBaseline associateResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/associate", assocBody, &assocBaseline); code != http.StatusOK {
		t.Fatalf("baseline associate: status %d: %s", code, raw)
	}
	assocBaseline.Generation = 0

	const (
		matchWorkers = 4
		assocWorkers = 2
		iters        = 8
		reloads      = 5
	)
	var wg sync.WaitGroup
	var failed sync.Map // description -> struct{}
	fail := func(format string, args ...any) {
		failed.Store(fmt.Sprintf(format, args...), struct{}{})
	}
	for w := 0; w < matchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, h := range hashes {
					var m matchResponse
					code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &m)
					if code != http.StatusOK {
						fail("match %016x: status %d: %s", uint64(h), code, raw)
						return
					}
					m.Generation = 0
					if m != matchBaseline[h] {
						fail("match %016x diverged during reload: %+v != %+v", uint64(h), m, matchBaseline[h])
						return
					}
				}
			}
		}()
	}
	for w := 0; w < assocWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var a associateResponse
				code, raw := e.do(t, http.MethodPost, "/v1/associate", assocBody, &a)
				if code != http.StatusOK {
					fail("associate: status %d: %s", code, raw)
					return
				}
				a.Generation = 0
				if !reflect.DeepEqual(a, assocBaseline) {
					fail("associate diverged during reload")
					return
				}
			}
		}()
	}
	// The reloader runs concurrently with the traffic above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			var st ReloadStatus
			code, raw := e.do(t, http.MethodPost, "/v1/admin/reload", nil, &st)
			if code != http.StatusOK {
				fail("reload %d: status %d: %s", i, code, raw)
				return
			}
			if st.Clusters != len(e.eng.Clusters()) {
				fail("reload %d: %d clusters, want %d", i, st.Clusters, len(e.eng.Clusters()))
				return
			}
		}
	}()
	wg.Wait()
	failed.Range(func(k, _ any) bool {
		t.Error(k)
		return true
	})
	if t.Failed() {
		t.FailNow()
	}

	if g := e.srv.Generation(); g != 1+reloads {
		t.Fatalf("generation = %d after %d reloads, want %d", g, reloads, 1+reloads)
	}

	// And after the dust settles: results are still the baseline's.
	for _, h := range hashes {
		var m matchResponse
		if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &m); code != http.StatusOK {
			t.Fatalf("post-reload match: status %d", code)
		}
		m.Generation = 0
		if m != matchBaseline[h] {
			t.Fatalf("match %016x diverged after reloads: %+v != %+v", uint64(h), m, matchBaseline[h])
		}
	}

	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Reloads != reloads {
		t.Fatalf("statsz reloads = %d, want %d", stats.Reloads, reloads)
	}
	if stats.Requests.Errors != 0 {
		t.Fatalf("statsz errors = %d, want 0", stats.Requests.Errors)
	}
	// Every lookup above went through the match path: the baseline pass,
	// the hammer and the pass after it.
	const passes = 2 + matchWorkers*iters
	lookups := int64(len(hashes) * passes)
	var matched int64
	for _, h := range hashes {
		if matchBaseline[h].Matched {
			matched += passes
		}
	}
	if stats.Requests.Match != lookups || stats.Match.Matched != matched || stats.Match.Missed != lookups-matched {
		t.Fatalf("statsz match = %d requests, %+v; want %d requests, %d matched, %d missed",
			stats.Requests.Match, stats.Match, lookups, matched, lookups-matched)
	}
	if stats.Generation != uint64(1+reloads) {
		t.Fatalf("statsz generation = %d, want %d", stats.Generation, 1+reloads)
	}
}

func matchBody(h memes.Hash) []byte {
	return []byte(fmt.Sprintf(`{"hash":"%016x"}`, uint64(h)))
}

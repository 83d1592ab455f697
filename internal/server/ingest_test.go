package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/ingest"
	"github.com/memes-pipeline/memes/internal/phash"
)

// plantServerNovelEntry appends a synthetic KYM entry whose gallery hash is
// far from every hash in the corpus, so posts carrying it can only become
// servable through an ingest-triggered re-cluster (never by matching a
// resident medoid). Same shape as the internal/ingest and root-package tests.
func plantServerNovelEntry(t *testing.T, ds *memes.Dataset) memes.Hash {
	t.Helper()
	var existing []memes.Hash
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			existing = append(existing, ds.Posts[i].PHash())
		}
	}
	for _, e := range ds.KYMEntries {
		for _, g := range e.Gallery {
			existing = append(existing, memes.Hash(g))
		}
	}
	for k := uint64(1); k < 1<<20; k++ {
		h := memes.Hash(k * 0x9E3779B97F4A7C15)
		far := true
		for _, x := range existing {
			if phash.Distance(h, x) <= 16 {
				far = false
				break
			}
		}
		if far {
			ds.KYMEntries = append(ds.KYMEntries, dataset.KYMEntry{
				Name:            "synthetic-novel-meme",
				Title:           "Synthetic Novel Meme",
				Category:        "memes",
				Gallery:         []uint64{uint64(h)},
				ScreenshotFlags: []bool{false},
			})
			return h
		}
	}
	t.Fatal("no hash is far from the whole corpus")
	return 0
}

// newIngestEnv is newTestEnv with the streaming ingest path enabled and a
// novel annotated entry planted in the corpus; it returns the planted hash.
func newIngestEnv(t *testing.T, cfg memes.IngestConfig) (*testEnv, memes.Hash) {
	t.Helper()
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	novel := plantServerNovelEntry(t, ds)
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	eng, err := memes.NewEngine(t.Context(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	snap := saveSnapshot(t, eng)
	loader := func() (*memes.Engine, error) {
		r, err := os.Open(snap)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return memes.LoadEngine(r, site)
	}
	srv, err := New(Config{
		Loader: loader,
		Ingest: func(hot *memes.HotEngine) (*memes.Ingestor, error) {
			return memes.NewIngestor(hot, ds, site, cfg)
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{ds: ds, eng: eng, srv: srv, ts: ts}, novel
}

// saveSnapshot writes eng's snapshot to a temporary file and returns its path.
func saveSnapshot(t *testing.T, eng *memes.Engine) string {
	t.Helper()
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
	return snap
}

// ingestBody marshals an ingest request.
func ingestBody(t *testing.T, posts []memes.Post) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Posts []memes.Post `json:"posts"`
	}{Posts: posts})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return body
}

// novelPosts builds n fringe image posts carrying the planted hash.
func novelPosts(novel memes.Hash, n int) []memes.Post {
	posts := make([]memes.Post, n)
	for i := range posts {
		posts[i] = memes.Post{
			ID:        9_000_000 + int64(i),
			Community: dataset.Pol,
			Timestamp: time.Unix(0, 0).UTC(),
			HasImage:  true,
			Hash:      uint64(novel),
			TruthMeme: -1,
			TruthRoot: -1,
		}
	}
	return posts
}

// residentMedoid picks an annotated medoid of the base build — a hash that
// must stay servable through every ingest-triggered swap.
func residentMedoid(t *testing.T, eng *memes.Engine) memes.Hash {
	t.Helper()
	clusters := eng.Clusters()
	for i := range clusters {
		if clusters[i].Annotated() {
			return clusters[i].MedoidHash
		}
	}
	t.Fatal("base build has no annotated cluster")
	return 0
}

// TestIngestDisabled pins the degraded mode: without an ingest configuration
// the endpoint answers 503 and statsz reports the subsystem disabled.
func TestIngestDisabled(t *testing.T) {
	e := newTestEnv(t)
	code, raw := e.do(t, http.MethodPost, "/v1/ingest", []byte(`{"posts":[]}`), nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest status = %d, want 503: %s", code, raw)
	}
	if !strings.Contains(string(raw), "ingest disabled") {
		t.Fatalf("ingest error = %s, want a disabled notice", raw)
	}
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Ingest.Enabled {
		t.Error("statsz reports ingest enabled on a server without an Ingestor")
	}
	if stats.Requests.Ingest != 1 {
		t.Errorf("statsz requests.ingest = %d, want 1", stats.Requests.Ingest)
	}
}

// TestIngestReceiptAndStats drives the endpoint below the trigger threshold
// and cross-checks every receipt field and the statsz ingest document.
func TestIngestReceiptAndStats(t *testing.T) {
	e, novel := newIngestEnv(t, memes.IngestConfig{Threshold: 1 << 20})
	resident := residentMedoid(t, e.eng)

	// A post matching a resident annotated medoid is assigned immediately.
	assigned := []memes.Post{{
		ID:        8_000_000,
		Community: dataset.Pol,
		Timestamp: time.Unix(0, 0).UTC(),
		HasImage:  true,
		Hash:      uint64(resident),
		TruthMeme: -1,
		TruthRoot: -1,
	}}
	var rec ingestResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, assigned), &rec); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	if rec.Accepted != 1 || rec.Assigned != 1 || rec.Pending != 0 || rec.Triggered || rec.Seq != 1 {
		t.Fatalf("assigned receipt = %+v", rec)
	}
	if rec.Generation != 1 {
		t.Fatalf("generation = %d, want 1 (no swap below threshold)", rec.Generation)
	}

	// Novel posts park in the pending pool.
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 2)), &rec); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	if rec.Accepted != 2 || rec.Assigned != 0 || rec.Pending != 2 || rec.Triggered || rec.Seq != 3 {
		t.Fatalf("pending receipt = %+v", rec)
	}

	// Malformed body and invalid community are client errors.
	if code, _ := e.do(t, http.MethodPost, "/v1/ingest", []byte(`{"posts":`), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", code)
	}
	bad := novelPosts(novel, 1)
	bad[0].Community = dataset.Community(99)
	if code, _ := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, bad), nil); code != http.StatusBadRequest {
		t.Fatalf("invalid community status = %d, want 400", code)
	}

	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	want := IngestStats{Enabled: true, Stats: ingest.Stats{Ingested: 3, Assigned: 1, Pending: 2, Pool: 3, Seq: 3}}
	if stats.Ingest != want {
		t.Errorf("statsz ingest = %+v, want %+v", stats.Ingest, want)
	}
	if stats.Requests.Ingest != 4 {
		t.Errorf("statsz requests.ingest = %d, want 4", stats.Requests.Ingest)
	}
}

// TestIngestBackpressure pins the pool-full signal at the HTTP layer.
func TestIngestBackpressure(t *testing.T) {
	e, novel := newIngestEnv(t, memes.IngestConfig{Threshold: 1 << 20, MaxPending: 2})
	code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 3)), nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503: %s", code, raw)
	}
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Ingest.Rejected != 3 || stats.Ingest.Seq != 0 || stats.Ingest.Pending != 0 {
		t.Fatalf("statsz ingest = %+v, want 3 rejected and nothing accepted", stats.Ingest)
	}
}

// TestIngestHotSwapZeroDrops is the serving-layer acceptance test: posts
// POSTed to /v1/ingest cross the threshold, the background re-cluster swaps a
// fresh engine in, the novel hash becomes matchable without a restart — and
// concurrent /v1/match traffic on a resident medoid never sees a single
// failed or missed request while that happens.
func TestIngestHotSwapZeroDrops(t *testing.T) {
	e, novel := newIngestEnv(t, memes.IngestConfig{Threshold: 5})
	resident := residentMedoid(t, e.eng)

	var m matchResponse
	if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(novel), &m); code != http.StatusOK || m.Matched {
		t.Fatalf("novel hash before ingest: code=%d matched=%v", code, m.Matched)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests, failures atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var m matchResponse
				code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(resident), &m)
				requests.Add(1)
				if code != http.StatusOK || !m.Matched {
					failures.Add(1)
				}
			}
		}()
	}

	var rec ingestResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 5)), &rec); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	if !rec.Triggered || rec.Pending != 5 {
		t.Fatalf("receipt = %+v, want a triggered re-cluster of 5 pending posts", rec)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var m matchResponse
		if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(novel), &m); code == http.StatusOK && m.Matched {
			if m.Entry != "synthetic-novel-meme" {
				t.Errorf("novel match entry = %q, want the planted entry", m.Entry)
			}
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("novel hash never became servable; statsz ingest: %+v", e.srv.Ingestor().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Keep hammering past the swap until the assertion has real volume.
	for requests.Load() < 300 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("hammer never accumulated volume")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Errorf("%d of %d concurrent requests failed during the ingest-triggered swap", n, requests.Load())
	}

	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if !stats.Ingest.Enabled || stats.Ingest.Reclusters < 1 || stats.Ingest.Pending != 0 {
		t.Errorf("statsz ingest = %+v, want >=1 re-cluster and an empty pending pool", stats.Ingest)
	}
	if stats.Generation < 2 {
		t.Errorf("generation = %d, want a swap", stats.Generation)
	}
	if stats.Requests.Errors != 0 {
		t.Errorf("statsz errors = %d, want 0", stats.Requests.Errors)
	}
}

// waitMatched polls /v1/match until hash matches, failing after 30 s.
func waitMatched(t *testing.T, e *testEnv, hash memes.Hash) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var m matchResponse
		if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(hash), &m); code == http.StatusOK && m.Matched {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hash %v never became servable; ingest stats: %+v", hash, e.srv.Ingestor().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLoadedAtFollowsPublishedGeneration: statsz's loaded_at is when the
// served generation was published, so a threshold re-cluster under ingest
// moves it along with the generation, not only New and Reload.
func TestLoadedAtFollowsPublishedGeneration(t *testing.T) {
	e, novel := newIngestEnv(t, memes.IngestConfig{Threshold: 5})
	statsz := func() (StatsDoc, time.Time) {
		t.Helper()
		var st StatsDoc
		if code, raw := e.do(t, http.MethodGet, "/v1/statsz", nil, &st); code != http.StatusOK {
			t.Fatalf("statsz status = %d: %s", code, raw)
		}
		at, err := time.Parse(time.RFC3339Nano, st.LoadedAt)
		if err != nil {
			t.Fatalf("loaded_at %q: %v", st.LoadedAt, err)
		}
		return st, at
	}
	if st, _ := statsz(); st.Generation != 1 {
		t.Fatalf("generation before ingest = %d, want 1", st.Generation)
	}
	ingestAt := time.Now()
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 5)), nil); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	waitMatched(t, e, novel)
	st, at := statsz()
	if st.Generation != 2 || !at.After(ingestAt) {
		t.Errorf("after the re-cluster: generation %d loaded at %s, want generation 2 loaded after %s",
			st.Generation, st.LoadedAt, ingestAt.UTC().Format(time.RFC3339Nano))
	}
}

// TestReloadUnderIngestKeepsIngestedClusters pins that a reload never rolls
// the served generation back to the boot artifact while ingest owns it:
// after a threshold-triggered re-cluster has made a novel hash servable,
// POST /v1/admin/reload and Server.Reload (memeserve's SIGHUP path) both
// report the generation being served, and the novel hash still matches.
func TestReloadUnderIngestKeepsIngestedClusters(t *testing.T) {
	e, novel := newIngestEnv(t, memes.IngestConfig{Threshold: 5})
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 5)), nil); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	waitMatched(t, e, novel)

	check := func(via string, gen uint64) {
		t.Helper()
		var m matchResponse
		if code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(novel), &m); code != http.StatusOK || !m.Matched {
			t.Fatalf("after %s: novel match code=%d: %s", via, code, raw)
		}
		if m.Generation != 2 || gen != 2 {
			t.Errorf("after %s: reload reported generation %d, match served %d; want 2 for both (no swap on an empty pool)", via, gen, m.Generation)
		}
		st := e.srv.Ingestor().Stats()
		if st.Seq != 5 || st.Reclusters != 1 {
			t.Errorf("after %s: ingest stats %+v, want Seq 5 and 1 re-cluster", via, st)
		}
	}
	var st ReloadStatus
	if code, raw := e.do(t, http.MethodPost, "/v1/admin/reload", nil, &st); code != http.StatusOK {
		t.Fatalf("reload status = %d: %s", code, raw)
	}
	if want := len(e.srv.Engine().Clusters()); st.Clusters != want {
		t.Errorf("reload reported %d clusters, serving %d", st.Clusters, want)
	}
	check("POST /v1/admin/reload", st.Generation)
	st, err := e.srv.Reload()
	if err != nil {
		t.Fatalf("Server.Reload: %v", err)
	}
	check("Server.Reload", st.Generation)

	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Reloads != 2 {
		t.Errorf("statsz reloads = %d, want 2", stats.Reloads)
	}
}

// TestReloadUnderIngestFoldsThePool pins what a reload does for posts still
// pooled below the threshold: it re-clusters them and publishes the result.
func TestReloadUnderIngestFoldsThePool(t *testing.T) {
	e, novel := newIngestEnv(t, memes.IngestConfig{Threshold: 1 << 20})
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 5)), nil); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	var m matchResponse
	if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(novel), &m); code != http.StatusOK || m.Matched {
		t.Fatalf("pooled novel hash: code=%d matched=%v, want a miss before the reload", code, m.Matched)
	}
	st, err := e.srv.Reload()
	if err != nil {
		t.Fatalf("Server.Reload: %v", err)
	}
	if st.Generation != 2 {
		t.Errorf("reload generation = %d, want 2", st.Generation)
	}
	if code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(novel), &m); code != http.StatusOK || !m.Matched || m.Generation != 2 {
		t.Fatalf("novel match after reload: code=%d: %s", code, raw)
	}
	if is := e.srv.Ingestor().Stats(); is.Pending != 0 || is.Pool != 0 || is.Reclusters != 1 {
		t.Errorf("ingest stats %+v, want an empty pool and 1 re-cluster", is)
	}
}

// bootFromDeltaDir starts a server the way memeserve boots with -delta-dir:
// from the newest compacted base in dir when there is one (else snap), with
// the -in corpus bound through WithDataset, then replays the journal.
func bootFromDeltaDir(t *testing.T, ds *memes.Dataset, site *memes.AnnotationSite, snap, dir string, cfg memes.IngestConfig) *testEnv {
	t.Helper()
	var baseSeq uint64
	if path, seq, ok, err := memes.LatestDeltaBase(dir); err != nil {
		t.Fatalf("LatestDeltaBase: %v", err)
	} else if ok {
		snap, baseSeq = path, seq
	}
	cfg.DeltaDir = dir
	srv, err := New(Config{
		Loader: func() (*memes.Engine, error) {
			return memes.LoadEngineFile(snap, site, memes.WithDataset(ds))
		},
		Ingest: func(hot *memes.HotEngine) (*memes.Ingestor, error) {
			return memes.NewIngestor(hot, ds, site, cfg)
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.Ingestor().Replay(t.Context(), baseSeq); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{ds: ds, srv: srv, ts: ts}
}

// reportSections fetches /v1/report and returns its sections: the report
// itself, without the generation and snapshot version that name the
// artifact serving it.
func reportSections(t *testing.T, e *testEnv) []reportSectionJSON {
	t.Helper()
	var doc reportResponse
	if code, raw := e.do(t, http.MethodGet, "/v1/report", nil, &doc); code != http.StatusOK {
		t.Fatalf("report status = %d: %s", code, raw)
	}
	return doc.Sections
}

// TestReportSurvivesCompactionRestart pins the restart path of the analysis
// endpoints: ingest posts that make a new cluster, let the journal compact,
// restart cleanly from the compacted base, and the report must be the same
// bytes as before the restart — the ingested posts included.
func TestReportSurvivesCompactionRestart(t *testing.T) {
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	novel := plantServerNovelEntry(t, ds)
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	eng, err := memes.NewEngine(t.Context(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	snap := saveSnapshot(t, eng)
	dir := t.TempDir()
	cfg := memes.IngestConfig{Threshold: 5, CompactAfter: 1}

	e := bootFromDeltaDir(t, ds, site, snap, dir, cfg)
	if code, raw := e.do(t, http.MethodPost, "/v1/ingest", ingestBody(t, novelPosts(novel, 5)), nil); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", code, raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.srv.Ingestor().Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction ran; stats %+v", e.srv.Ingestor().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := reportSections(t, e)
	e.ts.Close()
	e.srv.Close()

	after := reportSections(t, bootFromDeltaDir(t, ds, site, snap, dir, cfg))
	if len(after) != len(before) {
		t.Fatalf("report has %d sections after the restart, %d before", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("section %q differs after the restart:\nbefore:\n%s\nafter:\n%s", before[i].Title, before[i].Body, after[i].Body)
		}
	}
}

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/declog"
)

// newAnalysisEnv is newTestEnvCfg with a dataset-bound loader: the served
// engine carries the corpus (memes.WithDataset), as memeserve's loader
// does, so /v1/influence and /v1/report can materialise the full pipeline
// result. loaderOpts are appended to the loader's option list — the worker
// knobs of the bitwise-equivalence tests go through here.
func newAnalysisEnv(t *testing.T, loaderOpts []memes.Option, mut func(*Config)) *testEnv {
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
		opts := append([]memes.Option{memes.WithDataset(ds)}, loaderOpts...)
		return memes.LoadEngine(r, site, opts...)
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

// eqMatrix compares float64 matrices bitwise (Float64bits, not ==), so the
// check means "same bits", the contract the influence endpoint promises.
func eqMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqVec(a[i], b[i]) {
			return false
		}
	}
	return true
}

func eqVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInfluenceServedMatchesOffline pins the tentpole equivalence claim:
// the served influence matrices are bitwise-identical to the offline
// analysis path, across worker counts. The served engine runs Workers=1;
// the offline reference runs the default worker pool (GOMAXPROCS) — if the
// parallel fit fold were order-sensitive, this test would flake, not just
// fail.
func TestInfluenceServedMatchesOffline(t *testing.T) {
	e := newAnalysisEnv(t, []memes.Option{memes.WithWorkers(1)}, nil)
	want, err := analysis.EstimateInfluence(e.eng.Result(), analysis.AllMemes, analysis.DefaultInfluenceConfig())
	if err != nil {
		t.Fatalf("offline EstimateInfluence: %v", err)
	}

	for _, body := range []string{``, `{}`, `{"group":"all"}`} {
		var got influenceResponse
		if code, raw := e.do(t, http.MethodPost, "/v1/influence", []byte(body), &got); code != http.StatusOK {
			t.Fatalf("influence %q: status %d: %.300s", body, code, raw)
		}
		if got.Group != want.Group.String() || got.Generation != 1 {
			t.Fatalf("influence %q: group=%q generation=%d", body, got.Group, got.Generation)
		}
		if len(got.Communities) != len(want.Communities) {
			t.Fatalf("communities: %v vs %v", got.Communities, want.Communities)
		}
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("events[%d] = %d, want %d", i, got.Events[i], want.Events[i])
			}
		}
		if !eqMatrix(got.Raw, want.Raw) {
			t.Errorf("raw matrix diverges from offline:\nserved %v\noffline %v", got.Raw, want.Raw)
		}
		if !eqMatrix(got.Normalized, want.Normalized) {
			t.Errorf("normalized matrix diverges from offline")
		}
		if !eqVec(got.TotalExternal, want.TotalExternal) || !eqVec(got.Total, want.Total) {
			t.Errorf("total columns diverge from offline")
		}
	}
}

// TestInfluenceGroupAndOverrides covers group selection and config
// overrides: a non-default group answers that group's offline result, and
// a bad group is a 400 with the shared envelope.
func TestInfluenceGroupAndOverrides(t *testing.T) {
	e := newAnalysisEnv(t, nil, nil)
	cfg := analysis.DefaultInfluenceConfig()
	cfg.MaxIter = 10
	want, err := analysis.EstimateInfluenceCtx(t.Context(), e.eng.Result(), analysis.RacistMemes, cfg)
	if err != nil {
		t.Fatalf("offline EstimateInfluenceCtx: %v", err)
	}
	var got influenceResponse
	body := fmt.Sprintf(`{"group":"racist","max_iter":%d}`, cfg.MaxIter)
	if code, raw := e.do(t, http.MethodPost, "/v1/influence", []byte(body), &got); code != http.StatusOK {
		t.Fatalf("influence: status %d: %.300s", code, raw)
	}
	if got.Group != "racist" || !eqMatrix(got.Raw, want.Raw) {
		t.Errorf("served racist/max_iter=10 diverges from offline")
	}

	code, raw := e.do(t, http.MethodPost, "/v1/influence", []byte(`{"group":"nope"}`), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad group: status %d: %s", code, raw)
	}
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Reason != reasonBadRequest {
		t.Errorf("bad group envelope: %s (err %v)", raw, err)
	}
}

// TestAnalysisDisabledWithoutDataset verifies a pure serving replica (no
// memes.WithDataset in the loader) answers 503/analysis_disabled on both
// analysis endpoints instead of failing deeper.
func TestAnalysisDisabledWithoutDataset(t *testing.T) {
	e := newTestEnv(t)
	for _, rq := range []struct{ method, path string }{
		{http.MethodPost, "/v1/influence"},
		{http.MethodGet, "/v1/report"},
	} {
		code, raw := e.do(t, rq.method, rq.path, nil, nil)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s without dataset: status %d: %s", rq.path, code, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Reason != reasonAnalysisDisabled {
			t.Errorf("%s envelope: %s (err %v)", rq.path, raw, err)
		}
	}
}

// TestReportServedMatchesOffline asserts GET /v1/report carries exactly the
// sections the offline report renders for the same corpus, and that the
// per-generation cache answers identically on a second request.
func TestReportServedMatchesOffline(t *testing.T) {
	e := newAnalysisEnv(t, nil, nil)
	rep := analysis.NewReport(e.eng.Result())
	want, err := rep.Sections()
	if err != nil {
		t.Fatalf("offline Sections: %v", err)
	}
	for pass := 1; pass <= 2; pass++ {
		var got reportResponse
		if code, raw := e.do(t, http.MethodGet, "/v1/report", nil, &got); code != http.StatusOK {
			t.Fatalf("report pass %d: status %d: %.300s", pass, code, raw)
		}
		if got.Generation != 1 {
			t.Fatalf("report generation = %d", got.Generation)
		}
		if len(got.Sections) != len(want) {
			t.Fatalf("report pass %d: %d sections, want %d", pass, len(got.Sections), len(want))
		}
		for i := range want {
			if got.Sections[i].Title != want[i].Title || got.Sections[i].Body != want[i].Body {
				t.Fatalf("report pass %d section %d (%q) diverges from offline", pass, i, want[i].Title)
			}
		}
	}
}

// TestInfluenceCancellationNoLeak cancels an influence request mid-fit and
// asserts (a) the handler path honours the cancellation and (b) no worker
// goroutines outlive the request — the goroutine-leak half of the hawkes
// serving contract.
func TestInfluenceCancellationNoLeak(t *testing.T) {
	e := newAnalysisEnv(t, nil, nil)
	// Settle and take the baseline after one warm-up request, so lazily
	// started http/test goroutines are not counted as leaks.
	if code, raw := e.do(t, http.MethodPost, "/v1/influence", nil, nil); code != http.StatusOK {
		t.Fatalf("warm-up influence: status %d: %s", code, raw)
	}
	e.ts.Client().CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(t.Context())
		// max_iter is huge so the EM loops are still running when the cancel
		// lands; the per-iteration ctx check is what stops them.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/v1/influence",
			strings.NewReader(`{"max_iter":1000000}`))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := e.ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		<-done
	}

	e.ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled influence fits: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// collectSink gathers flushed decisions for the hammer assertions.
type collectSink struct {
	mu  sync.Mutex
	all []declog.Decision
}

func (s *collectSink) Upload(ctx context.Context, batch []declog.Decision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, batch...)
	return nil
}

// TestDecisionLogHammer drives concurrent /v1/associate traffic through a
// decision-logging server while hot reloads swap the engine underneath,
// then asserts exactly-once capture: every post of every served request
// yields exactly one decision — dense unique sequence numbers, zero drops,
// zero duplicates.
func TestDecisionLogHammer(t *testing.T) {
	sink := &collectSink{}
	logger, err := declog.New(declog.Config{Sink: sink, BufferSize: 1 << 16, BatchSize: 128, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e := newAnalysisEnv(t, nil, func(c *Config) { c.DecisionLog = logger })

	posts := e.ds.Posts
	if len(posts) > 64 {
		posts = posts[:64]
	}
	body, err := json.Marshal(postsRequest{Posts: posts})
	if err != nil {
		t.Fatal(err)
	}

	const workers, reqs = 6, 15
	var wg sync.WaitGroup
	var served int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				code, raw := e.do(t, http.MethodPost, "/v1/associate", body, nil)
				if code != http.StatusOK {
					t.Errorf("associate during hammer: status %d: %.200s", code, raw)
					return
				}
				mu.Lock()
				served++
				mu.Unlock()
			}
		}()
	}
	// Hot reloads race the traffic: decisions must neither drop nor double
	// across the swap.
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for i := 0; i < 5; i++ {
			if _, err := e.srv.Reload(); err != nil {
				t.Errorf("reload during hammer: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-reloadDone
	if err := logger.Close(); err != nil {
		t.Fatal(err)
	}

	st := logger.Stats()
	wantDecisions := served * int64(len(posts))
	if st.Dropped != 0 {
		t.Fatalf("hammer dropped %d decisions (buffer must be sized for the load)", st.Dropped)
	}
	if int64(st.Logged) != wantDecisions {
		t.Fatalf("logged %d decisions, want %d (%d served × %d posts)", st.Logged, wantDecisions, served, len(posts))
	}
	sink.mu.Lock()
	got := append([]declog.Decision(nil), sink.all...)
	sink.mu.Unlock()
	if int64(len(got)) != wantDecisions {
		t.Fatalf("sink received %d decisions, want %d", len(got), wantDecisions)
	}
	seen := make(map[uint64]bool, len(got))
	for _, d := range got {
		if d.Endpoint != "associate" {
			t.Fatalf("unexpected endpoint %q in hammer stream", d.Endpoint)
		}
		if seen[d.Seq] {
			t.Fatalf("duplicate decision seq %d", d.Seq)
		}
		seen[d.Seq] = true
		if d.Seq == 0 || int64(d.Seq) > wantDecisions {
			t.Fatalf("seq %d outside dense range [1,%d]", d.Seq, wantDecisions)
		}
		// Each request is one LogBatch: its posts hold one contiguous seq
		// range in request order, whatever else was logging.
		if want := posts[(d.Seq-1)%uint64(len(posts))].ID; d.Post.ID != want {
			t.Fatalf("seq %d carries post %d, want %d: a request's decisions were interleaved", d.Seq, d.Post.ID, want)
		}
	}
}

// parseExposition parses Prometheus text format into sample name{labels} →
// value, failing on lines that violate the format.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			switch valStr {
			case "+Inf":
				v = math.Inf(1)
			case "-Inf":
				v = math.Inf(-1)
			case "NaN":
				v = math.NaN()
			default:
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		out[key] = v
	}
	return out
}

// TestMetricsScrapeAgreesWithStatsz generates mixed traffic, scrapes
// /v1/metrics, and asserts the exposition parses and its counters equal
// the /v1/statsz document — the agree-by-construction contract.
func TestMetricsScrapeAgreesWithStatsz(t *testing.T) {
	e := newAnalysisEnv(t, nil, nil)
	clusters := e.eng.Clusters()
	hit := fmt.Sprintf(`{"hash":"%016x"}`, uint64(clusters[0].MedoidHash))
	miss := fmt.Sprintf(`{"hash":"%016x"}`, uint64(farHash(t, e.eng)))
	for i := 0; i < 3; i++ {
		if code, _ := e.do(t, http.MethodPost, "/v1/match", []byte(hit), nil); code != http.StatusOK {
			t.Fatalf("match hit status %d", code)
		}
	}
	if code, _ := e.do(t, http.MethodPost, "/v1/match", []byte(miss), nil); code != http.StatusOK {
		t.Fatalf("match miss status %d", code)
	}
	body, _ := json.Marshal(postsRequest{Posts: e.ds.Posts[:8]})
	if code, _ := e.do(t, http.MethodPost, "/v1/associate", body, nil); code != http.StatusOK {
		t.Fatal("associate failed")
	}
	if code, _ := e.do(t, http.MethodPost, "/v1/match", []byte(`{"hash":"zz"}`), nil); code != http.StatusBadRequest {
		t.Fatal("bad match did not 400")
	}
	if _, err := e.srv.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}

	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0)
	{
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			raw = append(raw, sc.Bytes()...)
			raw = append(raw, '\n')
		}
		resp.Body.Close()
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	samples := parseExposition(t, string(raw))

	// The scrape itself is counted, so statsz (fetched after) must agree on
	// every counter that the scrape could not have bumped.
	var doc StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &doc); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	for name, want := range map[string]float64{
		`memes_requests_total{endpoint="match"}`:     float64(doc.Requests.Match),
		`memes_requests_total{endpoint="associate"}`: float64(doc.Requests.Associate),
		`memes_requests_total{endpoint="influence"}`: float64(doc.Requests.Influence),
		`memes_requests_total{endpoint="report"}`:    float64(doc.Requests.Report),
		`memes_requests_total{endpoint="reload"}`:    float64(doc.Requests.Reload),
		`memes_errors_total`:                         float64(doc.Requests.Errors),
		`memes_match_total{outcome="matched"}`:       float64(doc.Match.Matched),
		`memes_match_total{outcome="missed"}`:        float64(doc.Match.Missed),
		`memes_associate_posts_total`:                float64(doc.Associate.Posts),
		`memes_associations_total`:                   float64(doc.Associate.Associations),
		`memes_reloads_total`:                        float64(doc.Reloads),
		`memes_engine_generation`:                    float64(doc.Generation),
		`memes_clusters`:                             float64(doc.Clusters),
		`memes_annotated_clusters`:                   float64(doc.AnnotatedClusters),
		`memes_overload_shed_total`:                  float64(doc.Overload.Shed),
		`memes_handler_panics_total`:                 float64(doc.Overload.Panics),
		`memes_degraded`:                             0,
	} {
		got, ok := samples[name]
		if !ok {
			t.Errorf("scrape is missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, statsz says %v", name, got, want)
		}
	}

	// The latency histogram observed the traffic: buckets are cumulative
	// and the count line equals the +Inf bucket.
	inf := samples[`memes_request_duration_seconds_bucket{endpoint="match",le="+Inf"}`]
	count := samples[`memes_request_duration_seconds_count{endpoint="match"}`]
	if inf == 0 || inf != count {
		t.Errorf("match histogram: +Inf bucket %v, count %v (want equal, nonzero)", inf, count)
	}
	if inf != float64(doc.Requests.Match) {
		t.Errorf("match histogram count %v, request counter %v", inf, doc.Requests.Match)
	}
	// The ladder resolves a lookup: its first bucket is 10µs.
	if _, ok := samples[`memes_request_duration_seconds_bucket{endpoint="match",le="1e-05"}`]; !ok {
		t.Error("match histogram has no le=1e-05 bucket")
	}
}

// TestMetricsDisabled verifies Config.DisableMetrics unregisters the
// endpoint (404) while everything else keeps serving.
func TestMetricsDisabled(t *testing.T) {
	e := newTestEnvCfg(t, func(c *Config) { c.DisableMetrics = true })
	if code, _ := e.do(t, http.MethodGet, "/v1/metrics", nil, nil); code != http.StatusNotFound {
		t.Fatalf("disabled metrics answered %d, want 404", code)
	}
	if code, _ := e.do(t, http.MethodGet, "/v1/healthz", nil, nil); code != http.StatusOK {
		t.Fatal("healthz broke alongside disabled metrics")
	}
}

// TestStatszDecisionLogBlock verifies statsz carries the decision-log
// accounting when a logger is configured, and a disabled block otherwise.
func TestStatszDecisionLogBlock(t *testing.T) {
	sink := &collectSink{}
	logger, err := declog.New(declog.Config{Sink: sink, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	e := newAnalysisEnv(t, nil, func(c *Config) { c.DecisionLog = logger })
	body, _ := json.Marshal(postsRequest{Posts: e.ds.Posts[:4]})
	if code, _ := e.do(t, http.MethodPost, "/v1/associate", body, nil); code != http.StatusOK {
		t.Fatal("associate failed")
	}
	var doc StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &doc); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	if !doc.DecisionLog.Enabled || doc.DecisionLog.Logged != 4 {
		t.Errorf("decision-log stats: %+v, want enabled with 4 logged", doc.DecisionLog)
	}

	plain := newTestEnv(t)
	var plainDoc StatsDoc
	if code, _ := plain.do(t, http.MethodGet, "/v1/statsz", nil, &plainDoc); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	if plainDoc.DecisionLog.Enabled {
		t.Error("decision-log stats enabled without a logger")
	}
}

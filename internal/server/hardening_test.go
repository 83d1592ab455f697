package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// decodeError unmarshals an error response body.
func decodeError(t *testing.T, raw []byte) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return er
}

// TestAdmissionControlShedsDeterministically pins the admission middleware
// in isolation: with one in-flight slot held by a blocked request, the next
// request is shed with 503 + Retry-After and a machine-readable reason,
// while the observability endpoints stay reachable through the full stack.
func TestAdmissionControlShedsDeterministically(t *testing.T) {
	e := newTestEnvCfg(t, func(c *Config) { c.MaxInFlight = 1 })

	entered := make(chan struct{})
	block := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
		w.WriteHeader(http.StatusOK)
	})
	h := e.srv.withAdmission(inner)

	first := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(first, httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	}()
	<-entered

	// The slot is held: the next request must be shed, not queued.
	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", second.Code)
	}
	if got := second.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("shed Retry-After = %q, want \"1\"", got)
	}
	if er := decodeError(t, second.Body.Bytes()); er.Reason != reasonOverloaded {
		t.Fatalf("shed reason = %q, want %q", er.Reason, reasonOverloaded)
	}

	// An operator can still observe the saturated node: healthz and statsz
	// bypass admission, and statsz reports the live in-flight level.
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz on a saturated node: status %d", code)
	}
	if stats.Overload.InFlight != 1 || stats.Overload.MaxInFlight != 1 {
		t.Fatalf("statsz overload = %+v, want in_flight 1 of 1", stats.Overload)
	}
	if stats.Overload.Shed != 1 {
		t.Fatalf("statsz shed = %d, want 1", stats.Overload.Shed)
	}
	if code, _ := e.do(t, http.MethodGet, "/v1/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz on a saturated node: status %d", code)
	}

	close(block)
	<-done
	if first.Code != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", first.Code)
	}
}

// TestOverloadHammerOnlyCleanResponses is the acceptance hammer: sustained
// concurrent traffic against a tiny in-flight bound sees only successful
// responses (bitwise-identical to the baseline) or clean 503 sheds carrying
// Retry-After — never a dropped, hung, or corrupted request.
func TestOverloadHammerOnlyCleanResponses(t *testing.T) {
	e := newTestEnvCfg(t, func(c *Config) { c.MaxInFlight = 2 })
	h := e.eng.Clusters()[0].MedoidHash
	var baseline matchResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &baseline); code != http.StatusOK {
		t.Fatalf("baseline match: status %d: %s", code, raw)
	}

	const (
		workers = 16
		iters   = 30
	)
	var (
		ok   atomic.Int64
		shed atomic.Int64
	)
	var failed sync.Map
	fail := func(format string, args ...any) {
		failed.Store(fmt.Sprintf(format, args...), struct{}{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/match", bytes.NewReader(matchBody(h)))
				if err != nil {
					fail("NewRequest: %v", err)
					return
				}
				resp, err := e.ts.Client().Do(req)
				if err != nil {
					fail("transport error (a dropped request): %v", err)
					return
				}
				var m matchResponse
				var er errorResponse
				switch resp.StatusCode {
				case http.StatusOK:
					if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
						fail("corrupt 200 body: %v", err)
					} else if m.Matched != baseline.Matched || m.ClusterID != baseline.ClusterID || m.Distance != baseline.Distance {
						fail("200 diverged from baseline: %+v != %+v", m, baseline)
					}
					ok.Add(1)
				case http.StatusServiceUnavailable:
					if got := resp.Header.Get("Retry-After"); got != "1" {
						fail("503 without Retry-After (got %q)", got)
					}
					if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
						fail("corrupt 503 body: %v", err)
					} else if er.Reason != reasonOverloaded {
						fail("503 reason = %q, want %q", er.Reason, reasonOverloaded)
					}
					shed.Add(1)
				default:
					fail("unclean status %d under overload", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	failed.Range(func(k, _ any) bool {
		t.Error(k)
		return true
	})
	if total := ok.Load() + shed.Load(); total != workers*iters {
		t.Fatalf("accounted responses = %d, want %d: some request vanished", total, workers*iters)
	}

	// The shed counter must agree exactly with what clients observed.
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if stats.Overload.Shed != shed.Load() {
		t.Fatalf("statsz shed = %d, clients saw %d", stats.Overload.Shed, shed.Load())
	}
	t.Logf("hammer: %d served, %d shed", ok.Load(), shed.Load())
}

// TestDeadlineExpiryAnswers504 pins the deadline middleware: a request
// whose budget is already gone is answered 504 with reason "deadline" and
// counted, while the exempt observability endpoints keep answering.
func TestDeadlineExpiryAnswers504(t *testing.T) {
	e := newTestEnvCfg(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	h := e.eng.Clusters()[0].MedoidHash
	code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired match: status %d, want 504: %s", code, raw)
	}
	if er := decodeError(t, raw); er.Reason != reasonDeadline {
		t.Fatalf("expired match reason = %q, want %q", er.Reason, reasonDeadline)
	}
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/statsz"} {
		if code, raw := e.do(t, http.MethodGet, path, nil, nil); code != http.StatusOK {
			t.Errorf("%s under a 1ns request timeout: status %d: %s", path, code, raw)
		}
	}
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if stats.Overload.Timeouts < 1 {
		t.Fatalf("statsz timeouts = %d, want >= 1", stats.Overload.Timeouts)
	}
}

// TestRecoveryMiddlewareContainsPanics pins the outermost layer: a panicking
// handler becomes a 500 with reason "panic" and a counter tick, a panic
// after the response started is contained without corrupting the response,
// and http.ErrAbortHandler passes through untouched.
func TestRecoveryMiddlewareContainsPanics(t *testing.T) {
	e := newTestEnv(t)

	h := e.srv.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if er := decodeError(t, rec.Body.Bytes()); er.Reason != reasonPanic {
		t.Fatalf("panicking handler reason = %q, want %q", er.Reason, reasonPanic)
	}
	if got := e.srv.stats.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// A panic after the response started: nothing more can be promised to
	// the client, but the counter still ticks and the process survives.
	h = e.srv.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("mid-response")
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("mid-response panic rewrote the status to %d", rec.Code)
	}
	if got := e.srv.stats.panics.Load(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}

	// ErrAbortHandler is the sanctioned abort: it must not be swallowed.
	h = e.srv.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("ErrAbortHandler was swallowed by the recovery middleware")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	}()
}

// TestMatchContainsEnginePanic drives a panic through the real lookup path
// (a nil engine poisons Engine.Match): the recovery middleware answers 500
// with reason "panic" and counts it, and the server goes on serving the
// next lookup once a real engine is back.
func TestMatchContainsEnginePanic(t *testing.T) {
	e := newTestEnv(t)
	h := e.eng.Clusters()[0].MedoidHash
	e.srv.hot.Swap(nil)
	code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("lookup on a nil engine: status %d, want 500: %s", code, raw)
	}
	if er := decodeError(t, raw); er.Reason != reasonPanic {
		t.Fatalf("lookup on a nil engine: reason = %q, want %q", er.Reason, reasonPanic)
	}
	if got := e.srv.stats.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	e.srv.hot.Swap(e.eng)
	var m matchResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &m); code != http.StatusOK {
		t.Fatalf("lookup after the panic: status %d: %s", code, raw)
	}
	want, ok, err := e.eng.Match(context.Background(), h)
	if err != nil || !ok {
		t.Fatalf("engine Match: (%+v, %v, %v)", want, ok, err)
	}
	if !m.Matched || m.ClusterID != want.ClusterID || m.Distance != want.Distance {
		t.Fatalf("lookup after the panic = %+v, want cluster %d at distance %d", m, want.ClusterID, want.Distance)
	}
}

// TestMatchExpiredContext pins the lookup's own context check: with the
// deadline middleware off, a /v1/match whose context has already expired is
// answered 504 "deadline" (and counted), and one whose caller has gone is
// answered 503 "canceled" — by Engine.Match, before any index work.
func TestMatchExpiredContext(t *testing.T) {
	e := newTestEnvCfg(t, func(c *Config) { c.RequestTimeout = -1 })
	handler := e.srv.Handler()
	body := matchBody(e.eng.Clusters()[0].MedoidHash)

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx    context.Context
		code   int
		reason string
	}{
		{expired, http.StatusGatewayTimeout, reasonDeadline},
		{cancelled, http.StatusServiceUnavailable, reasonCanceled},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)).WithContext(tc.ctx)
		handler.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Fatalf("match on a done context (%v): status %d, want %d: %s", tc.ctx.Err(), rec.Code, tc.code, rec.Body)
		}
		if er := decodeError(t, rec.Body.Bytes()); er.Reason != tc.reason {
			t.Fatalf("match on a done context (%v): reason = %q, want %q", tc.ctx.Err(), er.Reason, tc.reason)
		}
	}
	if got := e.srv.stats.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestReloadFailureKeepsOldEngine pins the degraded-reload contract: a
// failing loader answers 500 with reason "reload_failed", the old engine
// keeps serving identical results on its old generation, counters stay
// coherent — and a later successful reload recovers.
func TestReloadFailureKeepsOldEngine(t *testing.T) {
	e := newTestEnv(t)
	h := e.eng.Clusters()[0].MedoidHash
	var baseline matchResponse
	if code, raw := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &baseline); code != http.StatusOK {
		t.Fatalf("baseline match: status %d: %s", code, raw)
	}

	e.failLoads.Store(true)
	code, raw := e.do(t, http.MethodPost, "/v1/admin/reload", nil, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("failed reload: status %d, want 500: %s", code, raw)
	}
	if er := decodeError(t, raw); er.Reason != reasonReloadFailed {
		t.Fatalf("failed reload reason = %q, want %q", er.Reason, reasonReloadFailed)
	}
	if g := e.srv.Generation(); g != 1 {
		t.Fatalf("generation after failed reload = %d, want 1 (old engine serving)", g)
	}
	var m matchResponse
	if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &m); code != http.StatusOK {
		t.Fatalf("match after failed reload: status %d", code)
	}
	if m != baseline {
		t.Fatalf("match diverged after failed reload: %+v != %+v", m, baseline)
	}
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if stats.Reloads != 0 || stats.Requests.Reload != 1 || stats.Requests.Errors < 1 {
		t.Fatalf("stats after failed reload: reloads %d, reload reqs %d, errors %d",
			stats.Reloads, stats.Requests.Reload, stats.Requests.Errors)
	}

	// The operator fixes the snapshot: the next reload succeeds and swaps.
	e.failLoads.Store(false)
	var st ReloadStatus
	if code, raw := e.do(t, http.MethodPost, "/v1/admin/reload", nil, &st); code != http.StatusOK {
		t.Fatalf("recovered reload: status %d: %s", code, raw)
	}
	if st.Generation != 2 {
		t.Fatalf("recovered reload generation = %d, want 2", st.Generation)
	}
	m = matchResponse{}
	if code, _ := e.do(t, http.MethodPost, "/v1/match", matchBody(h), &m); code != http.StatusOK {
		t.Fatalf("match after recovered reload: status %d", code)
	}
	m.Generation = baseline.Generation
	if m != baseline {
		t.Fatalf("match diverged after recovered reload: %+v != %+v", m, baseline)
	}
}

// TestReadyzLifecycle pins readiness as distinct from liveness: ready while
// serving, not ready once Close ran — while healthz keeps reporting the
// process alive for its remaining drain window.
func TestReadyzLifecycle(t *testing.T) {
	e := newTestEnv(t)
	var ready readyResponse
	if code, raw := e.do(t, http.MethodGet, "/v1/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("readyz: status %d: %s", code, raw)
	}
	if !ready.Ready || ready.Reason != "" || ready.Generation != 1 {
		t.Fatalf("readyz = %+v", ready)
	}

	e.srv.Close()
	code, raw := e.do(t, http.MethodGet, "/v1/readyz", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close: status %d, want 503", code)
	}
	if er := decodeError(t, raw); er.Reason != reasonClosed {
		t.Fatalf("readyz after Close reason = %q, want %q", er.Reason, reasonClosed)
	}
	if code, _ := e.do(t, http.MethodGet, "/v1/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz after Close: status %d (liveness must outlast readiness)", code)
	}
}

// TestUnroutedRequestsAreNotEndpointTraffic pins what a request that
// reaches no route does: a wrong method (405) and an unknown path (404) are
// answered by the mux, not by an endpoint, so they count as no endpoint's
// request, feed no endpoint's histogram, and are not shed even when every
// admission slot is taken.
func TestUnroutedRequestsAreNotEndpointTraffic(t *testing.T) {
	e := newTestEnvCfg(t, func(c *Config) { c.MaxInFlight = 1 })
	unrouted := func() {
		t.Helper()
		if code, _ := e.do(t, http.MethodGet, "/v1/match", nil, nil); code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/match = %d, want 405", code)
		}
		if code, _ := e.do(t, http.MethodGet, "/v1/nope", nil, nil); code != http.StatusNotFound {
			t.Fatalf("GET /v1/nope = %d, want 404", code)
		}
	}
	unrouted()
	var stats StatsDoc
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Requests.Match != 0 {
		t.Errorf("statsz requests.match = %d after unrouted requests, want 0", stats.Requests.Match)
	}
	_, raw := e.do(t, http.MethodGet, "/v1/metrics", nil, nil)
	if n := parseExposition(t, string(raw))[`memes_request_duration_seconds_count{endpoint="match"}`]; n != 0 {
		t.Errorf("match histogram observed %v unrouted requests, want 0", n)
	}

	e.srv.sem <- struct{}{} // the bound is full
	unrouted()
	<-e.srv.sem
	if code, _ := e.do(t, http.MethodGet, "/v1/statsz", nil, &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Overload.Shed != 0 {
		t.Errorf("statsz overload.shed = %d after unrouted requests, want 0", stats.Overload.Shed)
	}
}

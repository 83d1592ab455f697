//go:build linux

package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %d, want 0", got)
	}
	if got := Percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("Percentile of one sample = %d, want it", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		p        float64
		beyond   int
		resolved bool
	}{
		{1000, 0.99, 10, true}, // 990 at or below, exactly ten beyond
		{999, 0.99, 9, false},  // one sample short
		{120000, 0.99, 1200, true},
		{4000, 0.999, 4, false},
		{200, 0.90, 20, true},
		{100, 0.90, 10, true},
		{99, 0.90, 9, false},
		{0, 0.5, 0, false},
	} {
		if got := Beyond(c.n, c.p); got != c.beyond {
			t.Errorf("Beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := Resolved(c.n, c.p); got != c.resolved {
			t.Errorf("Resolved(%d, %v) = %v, want %v", c.n, c.p, got, c.resolved)
		}
	}
}

func TestSlicesAndMedian(t *testing.T) {
	// Ten samples a slice, four slices; the third slice is disturbed.
	var r StreamResult
	for k := 0; k < 4; k++ {
		for i := 0; i < 10; i++ {
			lat := int64(100 + i)
			if k == 2 {
				lat *= 50
			}
			r.Latency = append(r.Latency, lat)
			r.End = append(r.End, int64(1000+k*250+i))
		}
	}
	got := Slices([]StreamResult{r}, 1000, 2000, 4)
	var p50 []float64
	for k, s := range got {
		if len(s) != 10 {
			t.Fatalf("slice %d holds %d samples, want 10", k, len(s))
		}
		p50 = append(p50, float64(Percentile(s, 0.5)))
	}
	if m := Median(p50); m != 104 {
		t.Errorf("median slice p50 = %v, want 104: the disturbed slice must not move it", m)
	}
	if m := Median([]float64{3, 1}); m != 2 {
		t.Errorf("Median of two = %v, want their mean", m)
	}
}

// echo answers every request with its own body, small bodies with a
// Content-Length and large ones chunked, as net/http chooses.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.Write(body)
}

func addrOf(s *httptest.Server) string { return strings.TrimPrefix(s.URL, "http://") }

func TestConnReadsLengthAndChunkedBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echo))
	defer srv.Close()
	c, err := Dial(addrOf(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 100 KB is past net/http's buffer, so the answer comes back chunked;
	// the small one after it proves the framing left the stream in place.
	for _, size := range []int{10, 100 << 10, 0, 33} {
		body := bytes.Repeat([]byte("x"), size)
		status, got, err := c.Do(EncodeRequest("POST", "/echo", body), time.Now().Add(5*time.Second))
		if err != nil || status != 200 || !bytes.Equal(got, body) {
			t.Fatalf("echo of %d bytes: status %d, %d bytes back, err %v", size, status, len(got), err)
		}
	}
}

func accept(int, int, []byte) bool { return true }

func fixed(wire []byte) func(int) ([]byte, int, bool) {
	return func(i int) ([]byte, int, bool) { return wire, i, true }
}

// TestOpenLoopChargesStallToLaterRequests stalls one answer by 200ms on a
// 100 req/s open loop. Requests that fell due during the stall could not
// leave until it ended; their latency must run from when they were due, so
// the stall shows up in some twenty requests, not one.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 10 {
			time.Sleep(stall)
		}
		echo(w, r)
	}))
	defer srv.Close()
	wire := EncodeRequest("POST", "/", []byte("{}"))
	res, err := Run(addrOf(srv), []Stream{{Name: "paced", Rate: 100, Next: fixed(wire), Check: accept}}, 0, 600*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Attempted != 60 || r.Failed() != 0 {
		t.Fatalf("attempted %d failed %d, want every one of the 60 due requests sent and answered", r.Attempted, r.Failed())
	}
	slow, late := 0, 0
	for i := range r.Latency {
		if r.Latency[i] > int64(50*time.Millisecond) {
			slow++
		}
		if r.Lag[i] > int64(50*time.Millisecond) {
			late++
		}
	}
	// The stalled request plus those due in the following 150ms.
	if slow < 12 || slow > 25 {
		t.Errorf("%d requests carry the stall, want about 16: latency must run from the due time", slow)
	}
	if late < 11 || late > 24 {
		t.Errorf("%d requests left the generator late, want about 15", late)
	}
	if last := r.Latency[len(r.Latency)-1]; last > int64(50*time.Millisecond) {
		t.Errorf("last request took %v: the loop must catch up after a stall", time.Duration(last))
	}
}

func TestClosedLoopDoesNotChargeStall(t *testing.T) {
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 10 {
			time.Sleep(100 * time.Millisecond)
		}
		echo(w, r)
	}))
	defer srv.Close()
	wire := EncodeRequest("POST", "/", []byte("{}"))
	res, err := Run(addrOf(srv), []Stream{{Name: "closed", Next: fixed(wire), Check: accept}}, 0, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, l := range res[0].Latency {
		if l > int64(50*time.Millisecond) {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d slow requests in a closed loop, want exactly the stalled one", slow)
	}
}

// TestFailuresAreCounted sends a fixed sequence of eight requests: the
// server refuses two with 503, drops the connection on one, and the checker
// rejects one of the rest.
func TestFailuresAreCounted(t *testing.T) {
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch seen.Add(1) {
		case 2, 5:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case 3:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		default:
			echo(w, r)
		}
	}))
	defer srv.Close()
	s := Stream{
		Name: "mixed",
		Next: func(i int) ([]byte, int, bool) {
			return EncodeRequest("POST", "/", []byte(fmt.Sprint(i))), i, i < 8
		},
		Check: func(key, _ int, body []byte) bool { return key != 6 && string(body) == fmt.Sprint(key) },
	}
	res, err := Run(addrOf(srv), []Stream{s}, 0, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Attempted != 8 || r.Sent != 8 {
		t.Fatalf("attempted %d sent %d, want 8 and 8", r.Attempted, r.Sent)
	}
	if r.Refused != 2 || r.Transport != 1 || r.Wrong != 1 || r.Failed() != 4 {
		t.Errorf("refused %d transport %d wrong %d, want 2, 1, 1", r.Refused, r.Transport, r.Wrong)
	}
	if len(r.Latency) != 4 || r.SentRefused != 2 {
		t.Errorf("%d latency samples and %d refusals overall, want 4 and 2: only correct answers are timed", len(r.Latency), r.SentRefused)
	}
}

func TestWarmUpIsSentButNotRecorded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echo))
	defer srv.Close()
	wire := EncodeRequest("POST", "/", []byte("{}"))
	var started time.Time
	res, err := Run(addrOf(srv), []Stream{{Name: "paced", Rate: 100, Next: fixed(wire), Check: accept}},
		100*time.Millisecond, 200*time.Millisecond, func(at time.Time) { started = at })
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Sent != 30 {
		t.Errorf("sent %d, want all 30 requests due in warm-up plus window", r.Sent)
	}
	if r.Attempted < 18 || r.Attempted > 21 {
		t.Errorf("recorded %d, want the 20 or so that completed inside the window", r.Attempted)
	}
	if started.IsZero() {
		t.Error("started was never told the run's clock")
	}
}

func TestEncodeRequestIsExact(t *testing.T) {
	got := string(EncodeRequest("POST", "/v1/match", []byte(`{"hash":"00"}`)))
	want := "POST /v1/match HTTP/1.1\r\nHost: memeserve\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"hash\":\"00\"}"
	if got != want {
		t.Errorf("EncodeRequest = %q, want %q", got, want)
	}
	if got := string(EncodeRequest("GET", "/v1/statsz", nil)); got != "GET /v1/statsz HTTP/1.1\r\nHost: memeserve\r\n\r\n" {
		t.Errorf("body-less request = %q", got)
	}
}

package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLazyDeadlineErr: before anything takes Done, Err is nil until the
// deadline, DeadlineExceeded after it and Canceled once the parent is; no
// timer is armed along the way.
func TestLazyDeadlineErr(t *testing.T) {
	var c lazyDeadline
	start := time.Now()
	c.init(context.Background(), 20*time.Millisecond)
	if d, ok := c.Deadline(); !ok || d.Before(start.Add(20*time.Millisecond)) || d.After(time.Now().Add(20*time.Millisecond)) {
		t.Fatalf("Deadline() = %v, %v; want about 20ms from %v", d, ok, start)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	waitFor(t, "the deadline", func() bool { return c.Err() != nil })
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) || time.Now().Before(c.deadline) {
		t.Fatalf("Err after the deadline = %v", err)
	}
	if c.armed.Load() != nil {
		t.Fatal("polling Err armed a timer")
	}
	// A Done taken after the deadline comes back closed.
	select {
	case <-c.Done():
	default:
		t.Fatal("Done taken after the deadline is open")
	}

	parent, cancel := context.WithCancel(context.Background())
	var p lazyDeadline
	p.init(parent, time.Hour)
	cancel()
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after the parent's cancel = %v, want Canceled", err)
	}

	// A sooner parent deadline is kept.
	soon, cancelSoon := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelSoon()
	var s lazyDeadline
	s.init(soon, time.Hour)
	if d, _ := s.Deadline(); d.After(time.Now().Add(time.Second)) {
		t.Fatalf("Deadline() = %v, want the parent's", d)
	}
}

// TestLazyDeadlineDone: once Done is taken it is one channel that closes at
// the deadline, Err stays nil until it does, and context.AfterFunc fires.
func TestLazyDeadlineDone(t *testing.T) {
	var c lazyDeadline
	c.init(context.Background(), 30*time.Millisecond)
	done := c.Done()
	if c.Done() != done {
		t.Fatal("Done returned two channels")
	}
	fired := make(chan struct{})
	context.AfterFunc(&c, func() { close(fired) })
	for open := true; open; {
		select {
		case <-done:
			open = false
		default:
			// Done may close between the two reads; a non-nil Err must
			// find it closed.
			if err := c.Err(); err != nil {
				select {
				case <-done:
				default:
					t.Fatalf("Err = %v while Done is open", err)
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done closed = %v, want DeadlineExceeded", err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("context.AfterFunc did not fire at the deadline")
	}
}

// TestDeadlineHandlerReleases: a handler that only polls Err arms no timer;
// one that leaves a goroutine watching Done has it released when it
// returns, long before the deadline, and the goroutine count returns to
// where it started.
func TestDeadlineHandlerReleases(t *testing.T) {
	var seen *lazyDeadline
	poll := deadlineHandler{timeout: time.Hour, next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Context().(*lazyDeadline)
		if err := r.Context().Err(); err != nil {
			t.Errorf("Err inside the handler = %v", err)
		}
	})}
	poll.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	if seen.armed.Load() != nil {
		t.Fatal("a handler that only polls Err armed a timer")
	}
	if err := seen.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after the handler returned = %v, want Canceled", err)
	}

	start := runtime.NumGoroutine()
	exited := make(chan struct{})
	watch := deadlineHandler{timeout: time.Hour, next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		child, cancel := context.WithCancel(ctx)
		go func() {
			defer cancel()
			<-child.Done()
			close(exited)
		}()
	})}
	watch.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/ingest", nil))
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler's exit did not release its armed deadline")
	}
	waitFor(t, "the goroutine count to return to its start", func() bool { return runtime.NumGoroutine() <= start })
}

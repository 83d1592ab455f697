package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// lazyDeadline is the per-request context withDeadline installs on query
// routes. Its Deadline is the request deadline, and until something asks for
// Done it keeps no timer: Err compares the clock. The serve path only polls
// Err (Engine.Match, the associate loop, internal/parallel), so a lookup that
// answers before its deadline never arms one. The first Done call arms a
// context.WithDeadline over the same parent and deadline, and from then on
// Done, Err and Value are that context's; release, which the middleware runs
// when the handler returns, stops its timer.
//
// Before Done is taken nobody can observe Done closing, so an Err that reads
// the clock keeps the context contract: once it reports DeadlineExceeded it
// always will, and a Done taken after that comes back closed. context.Cause
// is the one reader that can tell: until Done is taken it reports the
// parent's cause, nil at an expired deadline. Nothing on the serve path
// reads it.
type lazyDeadline struct {
	parent   context.Context
	deadline time.Time

	armed    atomic.Pointer[armedDeadline] // set by the first Done
	released atomic.Bool                   // the handler returned
	mu       sync.Mutex                    // serialises arming with release
}

// armedDeadline is the real deadline context a Done call arms.
type armedDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// deadlineHandler serves next under a lazyDeadline of timeout.
type deadlineHandler struct {
	next    http.Handler
	timeout time.Duration
}

// deadlineRequest is a request and its deadline context in one allocation:
// WithContext is inlined, so its copy of the request lives on the stack
// until it is copied into req.
type deadlineRequest struct {
	req http.Request
	ctx lazyDeadline
}

func (h deadlineHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	dr := new(deadlineRequest)
	dr.ctx.init(r.Context(), h.timeout)
	defer dr.ctx.release()
	dr.req = *r.WithContext(&dr.ctx)
	h.next.ServeHTTP(w, &dr.req)
}

// init bounds parent by timeout from now; a parent deadline that comes
// sooner is kept.
func (c *lazyDeadline) init(parent context.Context, timeout time.Duration) {
	c.parent, c.deadline = parent, time.Now().Add(timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(c.deadline) {
		c.deadline = pd
	}
}

func (c *lazyDeadline) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *lazyDeadline) Done() <-chan struct{} {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Done()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.armed.Load(); a != nil {
		return a.ctx.Done()
	}
	ctx, cancel := context.WithDeadline(c.parent, c.deadline)
	if c.released.Load() {
		cancel()
	}
	c.armed.Store(&armedDeadline{ctx: ctx, cancel: cancel})
	return ctx.Done()
}

func (c *lazyDeadline) Err() error {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Err()
	}
	if err := c.parent.Err(); err != nil {
		return err
	}
	if c.released.Load() {
		return context.Canceled
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value answers from the armed context once there is one, so a context
// derived from this one (context.WithCancel, context.AfterFunc) registers
// with the armed timer's cancel tree instead of starting a goroutine to
// watch Done.
func (c *lazyDeadline) Value(key any) any {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Value(key)
	}
	return c.parent.Value(key)
}

// release ends the request's use of the context, as the cancel of
// context.WithTimeout does: an armed timer stops and Done closes, and Err
// reports Canceled from then on.
func (c *lazyDeadline) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.released.Store(true)
	if a := c.armed.Load(); a != nil {
		a.cancel()
	}
}

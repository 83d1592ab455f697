//go:build linux

package loadgen

import (
	"sync"
	"syscall"
	"time"
)

// Stream is the traffic of one connection: where its requests come from,
// how they are paced, and how their answers are judged.
type Stream struct {
	// Name labels the stream in results ("match", "ingest").
	Name string
	// Rate is the open-loop send rate in requests per second: request i is
	// due at start + i/Rate whether or not earlier answers have arrived. A
	// request that was due while the previous answer was still outstanding
	// is timed from its due time, so a stall is charged to every request it
	// delayed. A request whose connection was free when it fell due is timed
	// from when it left: what lies between is the generator's own thread
	// waking late, which is reported as Lag and is not the server's doing.
	// Zero selects a closed loop: the next request leaves when the previous
	// answer has been read.
	Rate float64
	// Offset delays the stream's first due time, to stagger open-loop
	// connections sharing one aggregate rate.
	Offset time.Duration
	// Next returns the i-th request of the stream: its wire bytes and the
	// key its answer is checked under. ok false ends the stream early (a
	// finite feed ran out).
	Next func(i int) (wire []byte, key int, ok bool)
	// Check judges one answer; body is valid only during the call. A false
	// return counts the request as failed.
	Check func(key, status int, body []byte) bool
	// Span, when set, receives every completed request (index, start and end
	// in nanoseconds since the run began); the traced pass records its socket
	// spans through it.
	Span func(i int, start, end int64)
}

// StreamResult is what one stream measured inside the timed window.
type StreamResult struct {
	Name string
	// Latency holds one sample per correct answer completed inside the
	// window, in nanoseconds (see Stream.Rate for where it starts). End
	// holds, index for index, when each of those answers had been read, in
	// nanoseconds since the run began.
	Latency []int64
	End     []int64
	// Lag holds, for open-loop streams, how late each of those requests left
	// the generator (send minus due), in nanoseconds, whatever held it up.
	Lag []int64
	// Attempted counts requests completed (answered or failed) inside the
	// window; Refused, Transport and Wrong partition its failures into
	// non-2xx answers, connection errors and answers the checker rejected.
	Attempted, Refused, Transport, Wrong int
	// Sent counts every request the stream put on the wire over the whole
	// run, warm-up included: the number the server's own counters must show.
	Sent int
	// SentRefused counts non-2xx answers over the whole run, for comparison
	// with the server's error counter.
	SentRefused int
}

// Failed is the number of window requests that did not get a correct answer.
func (r *StreamResult) Failed() int { return r.Refused + r.Transport + r.Wrong }

// requestTimeout bounds one exchange; far above any healthy latency, so it
// only fires when the server is wedged.
const requestTimeout = 20 * time.Second

// Run drives every stream on its own connection for warm+window: the
// warm-up's requests are sent and checked but not recorded. started, when
// set, is told the instant the run's clock starts, so a caller can sample
// other counters on the same clock. Run returns one result per stream, in
// order.
func Run(addr string, streams []Stream, warm, window time.Duration, started func(time.Time)) ([]StreamResult, error) {
	conns := make([]*Conn, len(streams))
	for i := range streams {
		c, err := Dial(addr)
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return nil, err
		}
		conns[i] = c
	}
	results := make([]StreamResult, len(streams))
	start := time.Now()
	if started != nil {
		started(start)
	}
	begin, to := int64(warm), int64(warm+window)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		//memes:goroutine one client per connection, joined by wg.Wait below before Run returns
		go func(i int) {
			defer wg.Done()
			results[i] = drive(addr, conns[i], &streams[i], start, begin, to)
		}(i)
	}
	wg.Wait()
	return results, nil
}

// drive runs one stream to the end of the window.
func drive(addr string, c *Conn, s *Stream, start time.Time, begin, to int64) StreamResult {
	defer func() { c.Close() }()
	res := StreamResult{Name: s.Name}
	interval := time.Duration(0)
	if s.Rate > 0 {
		interval = time.Duration(float64(time.Second) / s.Rate)
	}
	free := int64(0) // when the connection last became free
	for i := 0; ; i++ {
		now := int64(time.Since(start))
		due := int64(-1)
		if interval > 0 {
			due = int64(s.Offset) + int64(i)*int64(interval)
			if due >= to {
				break
			}
			if wait := due - now; wait > 0 {
				sleep(wait)
			}
		} else if now >= to {
			break
		}
		wire, key, ok := s.Next(i)
		if !ok {
			break
		}
		sent := int64(time.Since(start))
		from := due
		if interval == 0 || free <= due {
			from = sent
		}
		status, body, err := c.Do(wire, start.Add(time.Duration(sent)+requestTimeout))
		end := int64(time.Since(start))
		free = end
		res.Sent++
		inWindow := end >= begin && end < to
		if inWindow {
			res.Attempted++
		}
		switch {
		case err != nil:
			if inWindow {
				res.Transport++
			}
			// The connection's framing is unknown after an error: replace it.
			c.Close()
			if fresh, derr := Dial(addr); derr == nil {
				c = fresh
			} else {
				time.Sleep(10 * time.Millisecond)
			}
			continue
		case status < 200 || status > 299:
			res.SentRefused++
			if inWindow {
				res.Refused++
			}
			continue
		case !s.Check(key, status, body):
			if inWindow {
				res.Wrong++
			}
			continue
		}
		if s.Span != nil {
			s.Span(i, sent, end)
		}
		if inWindow {
			res.Latency = append(res.Latency, end-from)
			res.End = append(res.End, end)
			if interval > 0 {
				res.Lag = append(res.Lag, sent-due)
			}
		}
	}
	return res
}

// sleep blocks the calling thread in the kernel for ns nanoseconds.
// time.Sleep will not do for pacing: a goroutine whose thread parks in the
// runtime's network poller is woken with millisecond granularity, so a
// 250µs inter-request gap would come out as a millisecond and the lag would
// be charged to the server as latency. nanosleep(2) is good to the timer
// slack, about 50µs.
func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}

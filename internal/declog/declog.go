// Package declog streams served association decisions to an external sink,
// in the style of OPA's decision-log plugin (plugins/logs): every decision
// the serving layer makes is appended to a bounded in-memory buffer,
// batched, and uploaded on a timer or when a batch fills — never on the
// request path. Backpressure is drop-counting, not blocking: when the
// buffer is full the newest decision is dropped and counted, so a slow or
// dead sink degrades observability, never serving.
//
// The log is the bridge between serving and the paper's offline analysis:
// a decision carries the full post that was associated, so an NDJSON log
// replayed through `memereport -replay` regenerates the paper's tables
// from real served traffic.
package declog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
)

// Decision is one served association decision. Seq is a dense per-logger
// sequence number assigned in arrival order under the buffer lock, so a
// replay can detect gaps and duplicates; the hammer test asserts both never
// happen for accepted decisions.
type Decision struct {
	// Seq is the decision's 1-based sequence number within the logger.
	Seq uint64 `json:"seq"`
	// TimeUnixNS is the wall-clock capture time in Unix nanoseconds.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// Endpoint names the serving endpoint that made the decision
	// ("associate" or "match").
	Endpoint string `json:"endpoint"`
	// Generation is the hot-engine generation that served the decision.
	Generation uint64 `json:"generation"`
	// Post is the post the decision was made about. Match lookups carry a
	// synthetic post holding only the queried hash.
	Post dataset.Post `json:"post"`
	// Matched reports whether the post matched an annotated cluster.
	Matched bool `json:"matched"`
	// ClusterID is the winning cluster; meaningful only when Matched.
	ClusterID int `json:"cluster_id"`
	// Distance is the Hamming distance to the winning medoid; meaningful
	// only when Matched.
	Distance int `json:"distance"`
	// Entry is the KYM entry name of the winning cluster, when Matched.
	Entry string `json:"entry,omitempty"`
}

// Sink receives flushed decision batches. Uploads run on the logger's
// flusher goroutine, never on the serve path; a failed upload is counted
// and the batch discarded (the log is an observability stream, not a
// durability guarantee). batch is the logger's own buffer, reused once Upload
// returns: a sink that keeps decisions copies them.
type Sink interface {
	Upload(ctx context.Context, batch []Decision) error
}

// Stats is a point-in-time snapshot of the logger's accounting.
type Stats struct {
	// Logged counts decisions accepted into the buffer.
	Logged uint64 `json:"logged"`
	// Dropped counts decisions rejected because the buffer was full.
	Dropped uint64 `json:"dropped"`
	// Batches counts sink uploads attempted.
	Batches uint64 `json:"batches"`
	// Flushed counts decisions successfully uploaded.
	Flushed uint64 `json:"flushed"`
	// FlushFailures counts failed uploads (their decisions are discarded).
	FlushFailures uint64 `json:"flush_failures"`
	// Buffered is the number of decisions currently awaiting flush.
	Buffered int `json:"buffered"`
}

// Config sizes a Logger. Zero values take the defaults noted per field.
type Config struct {
	// BufferSize bounds the in-memory decision buffer; beyond it new
	// decisions are dropped and counted. Default 4096.
	BufferSize int
	// BatchSize caps the decisions per sink upload and triggers an early
	// flush when the buffer reaches it. Default 512.
	BatchSize int
	// FlushInterval is the timer-driven flush period. Default 1s.
	FlushInterval time.Duration
	// Sink receives the batches; required.
	Sink Sink
}

// Logger is the bounded, batching decision buffer. Log is safe for
// concurrent use and never blocks on the sink.
type Logger struct {
	cfg Config

	mu     sync.Mutex
	buf    []Decision
	spare  []Decision // the drained buffer of the last flush, swapped back in by the next
	seq    uint64
	closed bool
	stats  Stats // the accounting; Stats fills in Buffered

	kick chan struct{} // non-blocking wake-up for the flusher
	stop chan struct{}
	done chan struct{}
}

// New starts a Logger flushing to cfg.Sink. Close releases it.
func New(cfg Config) (*Logger, error) {
	if cfg.Sink == nil {
		return nil, errors.New("declog: config requires a sink")
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 4096
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.BatchSize > cfg.BufferSize {
		cfg.BatchSize = cfg.BufferSize
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Second
	}
	l := &Logger{
		cfg:  cfg,
		buf:  make([]Decision, 0, cfg.BufferSize),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	//memes:goroutine flusher owned by Close: stop/done handshake joins it after a final drain
	go l.run()
	return l, nil
}

// Log offers one decision to the buffer. The decision's Seq and TimeUnixNS
// are assigned here, under the buffer lock, so sequence numbers are dense
// and ordered with buffer positions. Returns false when the decision was
// dropped (buffer full or logger closed). Never blocks on the sink.
func (l *Logger) Log(d Decision) bool {
	return l.LogBatch([]Decision{d}) == 1
}

// LogBatch offers the decisions of one request under a single lock
// acquisition and a single clock read: the accepted prefix gets a dense Seq
// range and one shared TimeUnixNS, exactly as len(ds) Log calls that nothing
// interleaved with would. What the buffer has no room for is dropped and
// counted; the return value is the number accepted. ds is copied, so the
// caller may reuse it. Never blocks on the sink.
//
//memes:noalloc
func (l *Logger) LogBatch(ds []Decision) int {
	l.mu.Lock()
	n := 0
	if !l.closed {
		n = min(len(ds), l.cfg.BufferSize-len(l.buf))
	}
	at := len(l.buf)
	l.buf = append(l.buf, ds[:n]...)
	now := time.Now().UnixNano()
	for i := at; i < len(l.buf); i++ {
		l.seq++
		l.buf[i].Seq = l.seq
		l.buf[i].TimeUnixNS = now
	}
	full := len(l.buf) >= l.cfg.BatchSize
	l.stats.Logged += uint64(n)
	l.stats.Dropped += uint64(len(ds) - n)
	l.mu.Unlock()
	if full && n > 0 {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return n
}

// Stats snapshots the logger's accounting. The batch and flush counters
// move when a flush finishes its uploads.
func (l *Logger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Buffered = len(l.buf)
	return st
}

// Flush synchronously drains the current buffer to the sink. Serving never
// calls this; it exists for tests and for Close's final drain.
func (l *Logger) Flush(ctx context.Context) {
	l.flush(ctx)
}

// Close stops the flusher, drains what remains in the buffer, and marks
// the logger closed (later Log calls drop). Idempotent.
func (l *Logger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return nil
}

// run is the flusher loop: a timer tick or a batch-full kick drains the
// buffer; stop triggers a final drain before exiting.
func (l *Logger) run() {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.flush(context.Background())
		case <-l.kick:
			l.flush(context.Background())
		case <-l.stop:
			l.flush(context.Background())
			return
		}
	}
}

// flush swaps the buffer out under the lock and uploads it in BatchSize
// chunks. Decisions of a failed upload are discarded and counted. The buffer
// swapped in is the one the previous flush drained, so a steady flusher
// alternates between two retained buffers; a new one is allocated only while
// a concurrent flush still holds the spare.
func (l *Logger) flush(ctx context.Context) {
	l.mu.Lock()
	if len(l.buf) == 0 {
		l.mu.Unlock()
		return
	}
	pending := l.buf
	l.buf, l.spare = l.spare, nil
	if l.buf == nil {
		l.buf = make([]Decision, 0, l.cfg.BufferSize)
	}
	l.mu.Unlock()

	var st Stats
	for rest := pending; len(rest) > 0; {
		n := min(len(rest), l.cfg.BatchSize)
		batch := rest[:n]
		rest = rest[n:]
		st.Batches++
		if err := l.cfg.Sink.Upload(ctx, batch); err != nil {
			st.FlushFailures++
			continue
		}
		st.Flushed += uint64(n)
	}

	l.mu.Lock()
	l.spare = pending[:0]
	l.stats.Batches += st.Batches
	l.stats.Flushed += st.Flushed
	l.stats.FlushFailures += st.FlushFailures
	l.mu.Unlock()
}

// AppendDecision appends d as one NDJSON line: byte-identical to
// json.Marshal(d) followed by a newline, which is what `memereport -replay`
// and Read parse back. The line is the seq, the head, the post and the tail;
// appendBatch writes the same four parts. The error is json.Marshal's own
// (see dataset.AppendPost); dst comes back unextended with it.
//
//memes:noalloc
func AppendDecision(dst []byte, d *Decision) ([]byte, error) {
	start := len(dst)
	dst = appendHead(appendSeq(dst, d), d)
	return appendPostTail(dst, start, d)
}

// appendSeq opens a line: `{"seq":S`.
//
//memes:noalloc
func appendSeq(dst []byte, d *Decision) []byte {
	return dataset.AppendUint(append(dst, `{"seq":`...), d.Seq)
}

// appendHead appends the fields every decision of one LogBatch call shares:
// `,"time_unix_ns":T,"endpoint":E,"generation":G,"post":`.
//
//memes:noalloc
func appendHead(dst []byte, d *Decision) []byte {
	dst = append(dst, `,"time_unix_ns":`...)
	dst = dataset.AppendInt(dst, d.TimeUnixNS)
	dst = append(dst, `,"endpoint":`...)
	dst = dataset.AppendJSONString(dst, d.Endpoint)
	dst = append(dst, `,"generation":`...)
	dst = dataset.AppendUint(dst, d.Generation)
	return append(dst, `,"post":`...)
}

// sameHead reports whether a and b print the same head.
func sameHead(a, b *Decision) bool {
	return a.TimeUnixNS == b.TimeUnixNS && a.Generation == b.Generation && a.Endpoint == b.Endpoint
}

// appendPostTail closes the line begun at dst[start:] with the post and
// `,"matched":…}` and a newline; when the post cannot be encoded, dst comes
// back cut to start.
//
//memes:noalloc
func appendPostTail(dst []byte, start int, d *Decision) ([]byte, error) {
	dst, err := dataset.AppendPost(dst, &d.Post)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"matched":`...)
	dst = strconv.AppendBool(dst, d.Matched)
	dst = append(dst, `,"cluster_id":`...)
	dst = dataset.AppendInt(dst, int64(d.ClusterID))
	dst = append(dst, `,"distance":`...)
	dst = dataset.AppendInt(dst, int64(d.Distance))
	if d.Entry != "" {
		dst = append(dst, `,"entry":`...)
		dst = dataset.AppendJSONString(dst, d.Entry)
	}
	return append(dst, '}', '\n'), nil
}

// appendBatch encodes a batch as NDJSON, line for line what AppendDecision
// writes. A run of decisions that print the same head — one LogBatch call
// shares its clock read, endpoint and generation — encodes it once and
// copies those bytes into every later line of the run. A decision that
// cannot be encoded fails the whole batch before any of it reaches the sink.
//
//memes:noalloc
func appendBatch(dst []byte, batch []Decision) ([]byte, error) {
	headAt, headEnd := 0, 0 // the last head encoded, dst[headAt:headEnd]
	for i := range batch {
		d := &batch[i]
		start := len(dst)
		dst = appendSeq(dst, d)
		if i > 0 && sameHead(&batch[i-1], d) {
			dst = append(dst, dst[headAt:headEnd]...)
		} else {
			headAt = len(dst)
			dst = appendHead(dst, d)
			headEnd = len(dst)
		}
		var err error
		if dst, err = appendPostTail(dst, start, d); err != nil {
			return dst, encodingError(err)
		}
	}
	return dst, nil
}

// encodingError is appendBatch's cold path.
func encodingError(err error) error {
	return fmt.Errorf("declog: encoding decision: %w", err)
}

// FileSink appends decisions as NDJSON lines (one Decision JSON document
// per line) to a file — the format `memereport -replay` reads back.
type FileSink struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte // the encoded batch, retained across uploads
}

// NewFileSink opens (creating or appending) the NDJSON file at path.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("declog: opening sink file: %w", err)
	}
	return &FileSink{f: f}, nil
}

// Upload appends the batch to the file in one write.
func (s *FileSink) Upload(ctx context.Context, batch []Decision) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.buf, err = appendBatch(s.buf[:0], batch); err != nil {
		return err
	}
	_, err = s.f.Write(s.buf)
	return err
}

// Close closes the underlying file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Read parses an NDJSON decision stream (the FileSink format). Blank lines
// are skipped; a malformed line fails with its line number.
func Read(r io.Reader) ([]Decision, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Decision
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var d Decision
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, fmt.Errorf("declog: line %d: %w", line, err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("declog: reading stream: %w", err)
	}
	return out, nil
}

// ReadFile is Read over the file at path.
func ReadFile(path string) ([]Decision, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

package declog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
)

// memSink collects uploads in memory; fail makes every upload error.
type memSink struct {
	mu      sync.Mutex
	batches [][]Decision
	fail    bool
}

func (s *memSink) Upload(ctx context.Context, batch []Decision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("sink down")
	}
	cp := make([]Decision, len(batch))
	copy(cp, batch)
	s.batches = append(s.batches, cp)
	return nil
}

func (s *memSink) all() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Decision
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

// TestLoggerSeqDense verifies Seq assignment: dense, 1-based, ordered with
// arrival, and preserved through flush.
func TestLoggerSeqDense(t *testing.T) {
	sink := &memSink{}
	l, err := New(Config{Sink: sink, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !l.Log(Decision{Endpoint: "associate"}) {
			t.Fatalf("Log %d rejected", i)
		}
	}
	l.Flush(context.Background())
	got := sink.all()
	if len(got) != 10 {
		t.Fatalf("flushed %d decisions, want 10", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Errorf("decision %d has seq %d, want %d", i, d.Seq, i+1)
		}
		if d.TimeUnixNS == 0 {
			t.Errorf("decision %d has no capture time", i)
		}
	}
	l.Close()
}

// TestFlushBatchSizeChunks verifies a flush splits the buffer into
// BatchSize-bounded uploads. The Logger is built by hand (no flusher
// goroutine), so the chunking is observed without the batch-full kick
// racing the explicit Flush.
func TestFlushBatchSizeChunks(t *testing.T) {
	sink := &memSink{}
	l := &Logger{cfg: Config{BufferSize: 100, BatchSize: 7, Sink: sink}}
	for i := 0; i < 20; i++ {
		l.buf = append(l.buf, Decision{Seq: uint64(i + 1)})
	}
	l.flush(context.Background())
	sink.mu.Lock()
	sizes := make([]int, 0, len(sink.batches))
	for _, b := range sink.batches {
		sizes = append(sizes, len(b))
	}
	sink.mu.Unlock()
	if len(sizes) != 3 || sizes[0] != 7 || sizes[1] != 7 || sizes[2] != 6 {
		t.Fatalf("batch sizes %v, want [7 7 6]", sizes)
	}
	if st := l.Stats(); st.Batches != 3 || st.Flushed != 20 || st.Buffered != 0 {
		t.Errorf("accounting: %+v", st)
	}
}

// TestLoggerBatchFullKick verifies reaching BatchSize wakes the flusher
// without waiting for the timer.
func TestLoggerBatchFullKick(t *testing.T) {
	sink := &memSink{}
	l, err := New(Config{Sink: sink, BufferSize: 100, BatchSize: 5, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.Log(Decision{})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().Flushed == 5 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("batch-full kick did not flush: %+v", l.Stats())
}

// TestLoggerDropsWhenFull verifies drop-counting backpressure: a full
// buffer rejects new decisions without blocking, and accepted ones survive.
func TestLoggerDropsWhenFull(t *testing.T) {
	sink := &memSink{}
	l, err := New(Config{Sink: sink, BufferSize: 4, BatchSize: 4, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the flusher racing the fill: batch-full kicks are asynchronous,
	// so make the sink fail first — failed batches are discarded, but here
	// we only care about accounting on the Log side. Simpler: fill faster
	// than the flusher can drain is racy, so assert on totals instead.
	accepted, droppedNow := 0, 0
	for i := 0; i < 100; i++ {
		if l.Log(Decision{}) {
			accepted++
		} else {
			droppedNow++
		}
	}
	st := l.Stats()
	if int(st.Logged) != accepted || int(st.Dropped) != droppedNow {
		t.Errorf("stats disagree with Log returns: %+v vs accepted=%d dropped=%d", st, accepted, droppedNow)
	}
	if droppedNow == 0 {
		t.Log("flusher drained fast enough that nothing dropped; acceptance accounting still verified")
	}
	l.Close()
	if got := len(sink.all()); got != accepted {
		t.Errorf("sink received %d decisions, want the %d accepted", got, accepted)
	}
}

// TestLoggerFailedUploadDiscarded verifies a failing sink counts failures
// and discards the batch instead of retrying or blocking.
func TestLoggerFailedUploadDiscarded(t *testing.T) {
	sink := &memSink{fail: true}
	l, err := New(Config{Sink: sink, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		l.Log(Decision{})
	}
	l.Flush(context.Background())
	st := l.Stats()
	if st.FlushFailures != 1 || st.Flushed != 0 || st.Buffered != 0 {
		t.Errorf("failed upload accounting: %+v", st)
	}
	// The sink recovers; only new decisions reach it.
	sink.mu.Lock()
	sink.fail = false
	sink.mu.Unlock()
	l.Log(Decision{Endpoint: "associate"})
	l.Flush(context.Background())
	got := sink.all()
	if len(got) != 1 || got[0].Endpoint != "associate" {
		t.Errorf("recovered sink got %+v, want only the post-recovery decision", got)
	}
}

// TestLoggerCloseDrainsAndRejects verifies Close's final drain and that a
// closed logger drops instead of panicking; Close is idempotent.
func TestLoggerCloseDrainsAndRejects(t *testing.T) {
	sink := &memSink{}
	l, err := New(Config{Sink: sink, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	l.Log(Decision{})
	l.Log(Decision{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.all()); got != 2 {
		t.Errorf("final drain flushed %d, want 2", got)
	}
	if l.Log(Decision{}) {
		t.Error("closed logger accepted a decision")
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestFileSinkRoundTrip writes decisions through a FileSink and reads the
// NDJSON back with ReadFile: every field survives the trip.
func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.ndjson")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Decision{
		{
			Seq: 1, TimeUnixNS: 12345, Endpoint: "associate", Generation: 3,
			Post: dataset.Post{
				ID: 7, Community: dataset.TheDonald, Subreddit: "The_Donald",
				Timestamp: time.Date(2017, 7, 1, 12, 0, 0, 0, time.UTC),
				HasImage:  true, Hash: 0xdeadbeef, Score: 42, TruthMeme: 1, TruthRoot: 2,
			},
			Matched: true, ClusterID: 9, Distance: 4, Entry: "smug-frog",
		},
		{Seq: 2, TimeUnixNS: 12346, Endpoint: "match",
			Post:    dataset.Post{HasImage: true, Hash: 1, TruthMeme: -1, TruthRoot: -1},
			Matched: false, ClusterID: -1, Distance: -1},
	}
	if err := sink.Upload(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Post.Timestamp.Equal(want[i].Post.Timestamp) {
			t.Errorf("decision %d timestamp: got %v, want %v", i, got[i].Post.Timestamp, want[i].Post.Timestamp)
		}
		got[i].Post.Timestamp = want[i].Post.Timestamp
		if got[i] != want[i] {
			t.Errorf("decision %d round-trip mismatch:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestFileSinkAppends verifies reopening a sink appends instead of
// truncating — a restarted server must not erase the earlier stream.
func TestFileSinkAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.ndjson")
	for run := 1; run <= 2; run++ {
		sink, err := NewFileSink(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Upload(context.Background(), []Decision{{Seq: uint64(run)}}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("appended stream: %+v", got)
	}
}

// TestReadErrors pins the malformed-line error shape (line-numbered) and
// blank-line tolerance.
func TestReadErrors(t *testing.T) {
	decisions, err := Read(strings.NewReader("{\"seq\":1}\n\n{\"seq\":2}\n"))
	if err != nil || len(decisions) != 2 {
		t.Fatalf("blank-line stream: %v, %d decisions", err, len(decisions))
	}
	_, err = Read(strings.NewReader("{\"seq\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line error = %v, want line-numbered failure", err)
	}
}

// TestLoggerConcurrentLog hammers Log from many goroutines against a live
// flusher and asserts exactly-once delivery of every accepted decision:
// unique dense seqs, no loss, no duplication.
func TestLoggerConcurrentLog(t *testing.T) {
	sink := &memSink{}
	l, err := New(Config{Sink: sink, BufferSize: 1 << 14, BatchSize: 64, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 500
	var accepted sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Log(Decision{Endpoint: fmt.Sprintf("w%d", w)})
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	st := l.Stats()
	if st.Logged != workers*each || st.Dropped != 0 {
		t.Fatalf("accounting after hammer: %+v", st)
	}
	got := sink.all()
	if len(got) != workers*each {
		t.Fatalf("sink received %d decisions, want %d", len(got), workers*each)
	}
	for _, d := range got {
		if _, dup := accepted.LoadOrStore(d.Seq, true); dup {
			t.Fatalf("duplicate seq %d", d.Seq)
		}
		if d.Seq == 0 || d.Seq > workers*each {
			t.Fatalf("seq %d outside dense range [1,%d]", d.Seq, workers*each)
		}
	}
}

// TestLogBatchAcceptsPrefix pins LogBatch's accounting at the edges: the
// prefix that fits gets the next dense seqs and one shared timestamp, the
// rest is dropped and counted, and a closed logger drops everything. New
// clamps BatchSize to BufferSize, so the logger is built by hand with a
// BatchSize the 10-slot buffer never reaches: the batch-full kick cannot
// fire, and the flusher drains only on the explicit Flush and on Close.
func TestLogBatchAcceptsPrefix(t *testing.T) {
	sink := &memSink{}
	l := &Logger{
		cfg:  Config{Sink: sink, BufferSize: 10, BatchSize: 32, FlushInterval: time.Hour},
		buf:  make([]Decision, 0, 10),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.run()
	batch := make([]Decision, 16)
	for i := range batch {
		batch[i] = Decision{Seq: 99, TimeUnixNS: 99, ClusterID: i}
	}
	if !l.Log(Decision{ClusterID: -1}) {
		t.Fatal("Log into an empty buffer dropped")
	}
	if n := l.LogBatch(batch); n != 9 {
		t.Fatalf("LogBatch accepted %d of 16 with 9 free, want 9", n)
	}
	if n := l.LogBatch(batch); n != 0 {
		t.Fatalf("LogBatch into a full buffer accepted %d", n)
	}
	if n := l.LogBatch(nil); n != 0 {
		t.Fatalf("empty LogBatch accepted %d", n)
	}
	if batch[0].Seq != 99 {
		t.Error("LogBatch wrote into the caller's slice")
	}
	l.Flush(context.Background())
	if n := l.LogBatch(batch[:3]); n != 3 {
		t.Fatalf("LogBatch after a flush accepted %d of 3", n)
	}
	l.Close()
	if n := l.LogBatch(batch); n != 0 {
		t.Fatalf("LogBatch on a closed logger accepted %d", n)
	}
	if st := l.Stats(); st.Logged != 13 || st.Dropped != 7+16+16 || st.Flushed != 13 {
		t.Fatalf("accounting: %+v", st)
	}
	got := sink.all()
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
		if i >= 1 && i < 10 && (d.ClusterID != i-1 || d.TimeUnixNS != got[1].TimeUnixNS || d.TimeUnixNS == 99) {
			t.Fatalf("decision %d of the batch: %+v", i, d)
		}
	}
}

// TestLogBatchConcurrent is the 8-writer hammer with batches in the mix:
// half the writers call LogBatch with varying sizes, half call Log, against a
// live flusher that swaps its two buffers under them. Every accepted decision
// arrives exactly once with a dense seq, and each batch holds one contiguous
// seq range in order.
func TestLogBatchConcurrent(t *testing.T) {
	sink := &memSink{}
	l, err := New(Config{Sink: sink, BufferSize: 1 << 14, BatchSize: 64, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 120
	var wg sync.WaitGroup
	var want atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := make([]Decision, 0, 40)
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					if !l.Log(Decision{Endpoint: fmt.Sprintf("w%d-r%d", w, r)}) {
						t.Errorf("Log dropped with the buffer sized for the load")
					}
					want.Add(1)
					continue
				}
				scratch = scratch[:0]
				for i := 0; i < 1+(w*r)%37; i++ {
					scratch = append(scratch, Decision{Endpoint: fmt.Sprintf("w%d-r%d", w, r), ClusterID: i})
				}
				if n := l.LogBatch(scratch); n != len(scratch) {
					t.Errorf("LogBatch accepted %d of %d with the buffer sized for the load", n, len(scratch))
				}
				want.Add(int64(len(scratch)))
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if st := l.Stats(); int64(st.Logged) != want.Load() || int64(st.Flushed) != want.Load() || st.Dropped != 0 {
		t.Fatalf("accounting after hammer: %+v, want %d logged and flushed", st, want.Load())
	}
	got := sink.all()
	if int64(len(got)) != want.Load() {
		t.Fatalf("sink received %d decisions, want %d", len(got), want.Load())
	}
	for i, d := range got {
		// One flusher, so arrival order is seq order: dense and exactly once.
		if d.Seq != uint64(i+1) {
			t.Fatalf("arrival %d has seq %d", i, d.Seq)
		}
		if d.ClusterID > 0 {
			prev := got[i-1]
			if prev.Endpoint != d.Endpoint || prev.ClusterID != d.ClusterID-1 || prev.TimeUnixNS != d.TimeUnixNS {
				t.Fatalf("batch %s torn at seq %d: %+v after %+v", d.Endpoint, d.Seq, d, prev)
			}
		}
	}
}

// TestFlushReusesBuffers pins the flusher's two retained buffers: in steady
// state a flush allocates nothing.
func TestFlushReusesBuffers(t *testing.T) {
	l, err := New(Config{Sink: discardSink{}, BufferSize: 256, BatchSize: 64, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := make([]Decision, 200)
	round := func() {
		l.LogBatch(batch)
		l.Flush(context.Background())
	}
	round() // allocates the second buffer
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("LogBatch + Flush allocates %v times in steady state, want 0", allocs)
	}
	if st := l.Stats(); st.Dropped != 0 || st.Flushed != st.Logged {
		t.Errorf("accounting: %+v", st)
	}
}

type discardSink struct{}

func (discardSink) Upload(context.Context, []Decision) error { return nil }

// TestSinksMatchJSONEncoder: FileSink puts on disk exactly the NDJSON
// json.Encoder wrote before it, and a decision encoding/json
// cannot marshal fails the upload with nothing written.
func TestSinksMatchJSONEncoder(t *testing.T) {
	batch := []Decision{
		{Seq: 1, TimeUnixNS: -5, Endpoint: "associate", Generation: 1<<64 - 1,
			Post:    dataset.Post{ID: 7, Community: dataset.TheDonald, Subreddit: "The_Donald", Timestamp: time.Date(2017, 7, 1, 12, 0, 0, 5, time.UTC), HasImage: true, Hash: 1<<64 - 1, Score: -3, TruthMeme: 1, TruthRoot: 2},
			Matched: true, ClusterID: 9, Distance: 4, Entry: "smug-frog"},
		{Seq: 2, Endpoint: "match", Post: dataset.Post{HasImage: true, Hash: 1, TruthMeme: -1, TruthRoot: -1}, ClusterID: -1, Distance: -1},
		{Seq: 3, Endpoint: "<&>", Entry: "пепе \"the\" frog ", Post: dataset.Post{Subreddit: "a\\b\x01", Timestamp: time.Date(2016, 1, 2, 3, 4, 5, 0, time.FixedZone("", 3600))}},
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range batch {
		if err := enc.Encode(&batch[i]); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "decisions.ndjson")
	file, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Decision{batch[0], {Post: dataset.Post{Timestamp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}}
	if err := file.Upload(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "encoding decision") {
		t.Fatalf("uploading a year-10000 decision: %v, want an encoding error", err)
	}
	if err := file.Upload(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("FileSink wrote (err %v):\n%s\nwant:\n%s", err, got, want.Bytes())
	}
}

// FuzzAppendDecision: for arbitrary field values AppendDecision is
// json.Marshal plus a newline, byte for byte, or fails exactly when
// json.Marshal does.
func FuzzAppendDecision(f *testing.F) {
	f.Add(uint64(1), int64(1500000000000000000), "associate", uint64(3), int64(7), 4, "The_Donald", int64(1498910400), int64(0), 0, true, uint64(0xdeadbeef), 42, 1, 2, true, 9, 4, "smug-frog")
	f.Add(uint64(0), int64(-1), "", uint64(0), int64(-1<<63), -9, "", int64(0), int64(0), 0, false, uint64(0), 0, -1, -1, false, -1, -1, "")
	f.Add(uint64(1<<64-1), int64(1<<63-1), "<script>&amp;", uint64(1<<64-1), int64(1<<63-1), math.MaxInt, "пепе/🐸", int64(-62167219200), int64(999999999), 3600, true, uint64(1<<64-1), math.MinInt, math.MaxInt, math.MinInt, true, math.MaxInt, 64, "a\"b\\c\x00\x7f \xff")
	f.Add(uint64(2), int64(2), "match", uint64(1), int64(2), 0, "r", int64(253402300800), int64(0), 0, true, uint64(1), 0, 0, 0, false, 0, 0, "year 10000")
	f.Add(uint64(2), int64(2), "match", uint64(1), int64(2), 0, "r", int64(-62167219201), int64(0), -86400, true, uint64(1), 0, 0, 0, false, 0, 0, "year -1, odd zone")
	f.Fuzz(func(t *testing.T, seq uint64, ns int64, endpoint string, gen uint64, id int64, community int, subreddit string, unix, nsec int64, zone int, hasImage bool, hash uint64, score, truthMeme, truthRoot int, matched bool, cluster, distance int, entry string) {
		ts := time.Unix(unix, nsec)
		if zone == 0 {
			ts = ts.UTC()
		} else {
			ts = ts.In(time.FixedZone("fuzz", zone%(48*3600)))
		}
		d := Decision{
			Seq: seq, TimeUnixNS: ns, Endpoint: endpoint, Generation: gen,
			Post: dataset.Post{ID: id, Community: dataset.Community(community), Subreddit: subreddit, Timestamp: ts,
				HasImage: hasImage, Hash: hash, Score: score, TruthMeme: truthMeme, TruthRoot: truthRoot},
			Matched: matched, ClusterID: cluster, Distance: distance, Entry: entry,
		}
		prefix := []byte("kept\n")
		got, err := AppendDecision(prefix, &d)
		want, wantErr := json.Marshal(&d)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendDecision error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed AppendDecision returned %q, want dst unextended", got)
			}
			return
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], append(want, '\n')) {
			t.Fatalf("AppendDecision:\n%s\njson.Marshal:\n%s", got[len(prefix):], want)
		}
	})
}

// FuzzAppendBatch: a batch whose time, endpoint and generation sometimes
// change in the middle of a run encodes to the concatenated
// json.Marshal(d)+"\n" of its decisions, and one decision json.Marshal
// refuses (a year-10000 post, op 0xf0 and up) fails the whole batch. Each op
// byte derives one decision: bit 0 moves the time, bit 1 the endpoint and
// bit 2 the generation; the rest fill the post and the tail.
func FuzzAppendBatch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 4, 4, 7, 0, 0})
	f.Add([]byte{0, 8, 0, 0xf0, 0, 0})
	f.Add([]byte{0x13, 0x13, 0x2d, 0x2d, 0x6a, 0x6a, 0x81})
	f.Fuzz(func(t *testing.T, ops []byte) {
		endpoints := [...]string{"associate", "match", "<&>", ""}
		batch := make([]Decision, 0, len(ops))
		d := Decision{TimeUnixNS: 1500000000000000000, Endpoint: endpoints[0], Generation: 1}
		for i, op := range ops {
			if op&1 != 0 {
				d.TimeUnixNS = d.TimeUnixNS*-7 + int64(op)
			}
			if op&2 != 0 {
				d.Endpoint = endpoints[(i+int(op>>3))%len(endpoints)]
			}
			if op&4 != 0 {
				d.Generation = d.Generation*31 + uint64(op)<<56
			}
			ts := time.Unix(int64(op)*86400*397-int64(i)*3607, int64(op)*1000003).UTC()
			if op >= 0xf0 {
				ts = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
			}
			d.Seq = uint64(i) * 0x9e3779b97f4a7c15
			d.Post = dataset.Post{ID: int64(i) - int64(op)<<40, Community: dataset.Community(op % 5), Timestamp: ts,
				HasImage: op&8 != 0, Hash: uint64(op) * 0x9e3779b97f4a7c15, Score: int(op) - 128, TruthMeme: int(op >> 4), TruthRoot: -1}
			d.Matched, d.ClusterID, d.Distance, d.Entry = op&16 != 0, int(op)*int(op), int(op%11), ""
			if d.Matched {
				d.Entry = "smug-frog"
			}
			batch = append(batch, d)
		}

		var want []byte
		var wantErr error
		for i := range batch {
			line, err := json.Marshal(&batch[i])
			if err != nil {
				wantErr = err
				break
			}
			want = append(append(want, line...), '\n')
		}
		prefix := []byte("kept\n")
		got, err := appendBatch(prefix, batch)
		if wantErr != nil {
			if err == nil || !strings.Contains(err.Error(), "encoding decision") {
				t.Fatalf("appendBatch error %v, json.Marshal refused a decision with %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("appendBatch: %v", err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendBatch:\n%s\njson.Marshal:\n%s", got[len(prefix):], want)
		}
	})
}

// Package ingest absorbs new posts into a running serving process: the
// streaming counterpart of the offline build, and the operational shape of
// the paper's regime — communities keep posting while the annotated-cluster
// artifact is rebuilt on a schedule, so a serving fleet must fold fresh
// posts in without a restart and without dropping a request.
//
// An Ingestor accepts post batches at runtime. Posts whose hash already
// matches an annotated medoid (within the association threshold) are
// servable immediately — the engine matches by hash, so nothing needs to
// change for them. Posts that do not match park in a bounded pending pool;
// when the pool crosses a threshold, a background re-cluster absorbs the
// whole pool into the incremental pipeline state, re-clusters only the
// affected communities, and publishes the fresh engine through the caller's
// hot-swap hook. Every accepted batch is journaled as a MEMEDELT frame
// before it is acknowledged, so a restart replays the journal and converges
// on the exact same state; a periodic compaction folds the journal into a
// base MEMESNAP plus one merged head frame.
//
// The determinism contract of the pipeline carries through: after any
// sequence of ingests, re-clusters, restarts, and compactions, the served
// engine is bitwise-identical (snapshot bytes) to a from-scratch build over
// the base corpus plus every ingested post in ingest order.
package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/faults"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// ErrPoolFull rejects an ingest batch that would overflow the pending pool:
// the backpressure signal that re-clustering is not keeping up. The batch is
// not journaled and not absorbed; callers retry after the pool drains.
var ErrPoolFull = errors.New("ingest: pending pool full")

// ErrClosed rejects ingests after Close.
var ErrClosed = errors.New("ingest: ingestor closed")

// ErrJournalDegraded rejects an ingest batch whose journal append kept
// failing after the whole retry budget: the durability guarantee cannot be
// given, so the batch is refused rather than acknowledged un-journaled. The
// ingestor stays degraded (Stats().Degraded) until an append succeeds again;
// the serving layer maps this to read-only mode — queries keep serving,
// ingests return 503.
var ErrJournalDegraded = errors.New("ingest: journal degraded")

// Config parameterises an Ingestor. Match and Publish are the two hooks into
// the serving layer; everything else has a usable default.
type Config struct {
	// Threshold is the number of pooled posts that need a re-cluster to
	// become servable (unmatched fringe image posts) that triggers the
	// background re-cluster. Default 256.
	Threshold int
	// MaxPending bounds the pool of accepted-but-unabsorbed posts; ingests
	// beyond it fail with ErrPoolFull. Default 8×Threshold.
	MaxPending int
	// CompactAfter is the number of sealed journal segments that triggers a
	// compaction after the next successful re-cluster. Default 8.
	CompactAfter int
	// DeltaDir is the journal directory; empty disables persistence (posts
	// survive re-clusters but not restarts).
	DeltaDir string
	// JournalAttempts is the total number of times one batch's journal
	// append is tried before the ingestor declares itself degraded and
	// refuses the batch. Default 3.
	JournalAttempts int
	// JournalBackoff is the delay before the first journal retry; each
	// further retry doubles it, capped at maxJournalBackoff. The schedule is
	// fixed (no jitter) so failure timelines replay identically. Default 2ms.
	JournalBackoff time.Duration
	// Match probes a hash against the currently served engine; ok means the
	// post is servable without a re-cluster.
	Match func(ctx context.Context, h phash.Hash) (ok bool, err error)
	// Publish swaps a freshly assembled build into the serving path. It is
	// called from the re-cluster goroutine and must not block for long.
	Publish func(*pipeline.BuildResult)
	// Rebind swaps in the served build bound to ds, a corpus its clusters
	// already fold, without re-clustering (pipeline.BuildResult.Rebind).
	// Replay calls it when the process booted from a base that folds the
	// whole journal, so the analysis answers see the replayed posts.
	Rebind func(ds *dataset.Dataset)
}

// withDefaults returns the config with zero fields defaulted.
func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 256
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 8 * c.Threshold
	}
	if c.CompactAfter <= 0 {
		c.CompactAfter = 8
	}
	if c.JournalAttempts <= 0 {
		c.JournalAttempts = 3
	}
	if c.JournalBackoff <= 0 {
		c.JournalBackoff = 2 * time.Millisecond
	}
	return c
}

// maxJournalBackoff caps the doubling journal retry delay.
const maxJournalBackoff = 50 * time.Millisecond

// Receipt acknowledges one accepted ingest batch.
type Receipt struct {
	// Accepted is the number of posts absorbed into the pool (the whole
	// batch — acceptance is all-or-nothing).
	Accepted int
	// Assigned counts the batch's image posts already matching an annotated
	// medoid: servable immediately, no re-cluster needed.
	Assigned int
	// Pending is the pool's unmatched-fringe-image count after this batch —
	// the re-cluster trigger level.
	Pending int
	// Triggered reports whether this batch started (or found running) the
	// background re-cluster.
	Triggered bool
	// Seq is the journal position after this batch: total posts accepted
	// since the base corpus.
	Seq uint64
}

// Stats is a point-in-time snapshot of the ingestor's counters. The json
// names are the ingest block of the server's /v1/statsz document.
type Stats struct {
	Ingested          int64  `json:"ingested"`
	Assigned          int64  `json:"assigned"`
	Rejected          int64  `json:"rejected"`
	Pending           int    `json:"pending"`
	Pool              int    `json:"pool"`
	Reclusters        int64  `json:"reclusters"`
	ReclusterFailures int64  `json:"recluster_failures"`
	Compactions       int64  `json:"compactions"`
	DeltaSegments     int    `json:"delta_segments"`
	Seq               uint64 `json:"seq"`
	// JournalRetries counts individual journal append retries (backoff
	// sleeps); JournalFailures counts batches refused after the whole retry
	// budget; TornTails counts torn journal tails repaired during Replay.
	JournalRetries  int64 `json:"journal_retries"`
	JournalFailures int64 `json:"journal_failures"`
	TornTails       int64 `json:"torn_tails"`
	// Degraded reports read-only mode: the last journal append exhausted its
	// retry budget and no append has succeeded since.
	Degraded bool `json:"degraded"`
}

// Ingestor absorbs posts at runtime; see the package comment. Construct with
// New; all methods are goroutine-safe.
type Ingestor struct {
	cfg Config

	// reclusterMu serialises everything that touches inc or the sealed part
	// of the journal: re-clusters, compaction, and replay.
	reclusterMu sync.Mutex
	inc         *pipeline.Incremental

	mu       sync.Mutex // guards everything below
	pool     []dataset.Post
	pending  int // pool posts needing a re-cluster to be servable
	seq      uint64
	seg      *os.File // active journal segment, lazily opened
	segs     int      // journal segment files on disk
	closed   bool
	inFlight bool // background re-cluster goroutine running
	needs    bool // absorbed posts await a successful rebuild (retry flag)
	degraded bool // last journal append exhausted its retry budget
	broken   bool // torn bytes could not be rolled back; journal unusable
	wg       sync.WaitGroup

	// stats holds the event counters; Stats fills in the levels (pending,
	// pool, segments, seq, degraded) from the fields above.
	stats Stats
}

// New wraps an incremental pipeline state in an Ingestor. The state must be
// seeded from the same corpus and configuration as the engine Publish swaps
// against, or the determinism contract is void.
func New(inc *pipeline.Incremental, cfg Config) (*Ingestor, error) {
	if inc == nil {
		return nil, errors.New("ingest: nil incremental state")
	}
	if cfg.Match == nil || cfg.Publish == nil || cfg.Rebind == nil {
		return nil, errors.New("ingest: Config.Match, Config.Publish and Config.Rebind are required")
	}
	cfg = cfg.withDefaults()
	if cfg.DeltaDir != "" {
		if err := os.MkdirAll(cfg.DeltaDir, 0o755); err != nil {
			return nil, fmt.Errorf("ingest: creating delta dir: %w", err)
		}
	}
	g := &Ingestor{cfg: cfg, inc: inc}
	g.seq = uint64(inc.Added())
	return g, nil
}

// Ingest accepts a batch of posts. Acceptance is all-or-nothing: the batch
// is validated, probed against the served engine, journaled (when a delta
// dir is configured), and only then pooled — so an acknowledged batch is
// durable and will be folded into the next re-cluster. Image posts already
// matching an annotated medoid count as Assigned and are servable without
// waiting; the rest raise the pending level, and crossing the threshold
// starts the background re-cluster.
func (g *Ingestor) Ingest(ctx context.Context, posts []dataset.Post) (Receipt, error) {
	if len(posts) == 0 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return Receipt{Pending: g.pending, Seq: g.seq}, nil
	}
	for i := range posts {
		if !posts[i].Community.Valid() {
			return Receipt{}, fmt.Errorf("ingest: post %d names invalid community %d", i, int(posts[i].Community))
		}
	}

	// Probe the served engine outside the lock: matches are servable as-is
	// and do not raise the re-cluster pressure.
	assigned := 0
	needy := 0
	for i := range posts {
		p := &posts[i]
		if !p.HasImage {
			continue
		}
		ok, err := g.cfg.Match(ctx, p.PHash())
		if err != nil {
			return Receipt{}, err
		}
		if ok {
			assigned++
		} else if p.Community.Fringe() {
			// Only fringe image posts can form new clusters; the rest join
			// the union corpus but never need a re-cluster.
			needy++
		}
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return Receipt{}, ErrClosed
	}
	if len(g.pool)+len(posts) > g.cfg.MaxPending {
		g.stats.Rejected += int64(len(posts))
		// Posts that match already never raise pending, yet they hold pool
		// slots until a re-cluster folds them in: drain now, or a stream of
		// them is refused forever.
		if len(g.pool) > 0 {
			g.scheduleLocked()
		}
		return Receipt{}, ErrPoolFull
	}
	if err := g.journalLocked(ctx, posts); err != nil {
		g.stats.Rejected += int64(len(posts))
		return Receipt{}, err
	}
	g.seq += uint64(len(posts))
	g.pool = append(g.pool, posts...)
	g.pending += needy
	g.stats.Ingested += int64(len(posts))
	g.stats.Assigned += int64(assigned)

	triggered := false
	if g.pending >= g.cfg.Threshold {
		triggered = true
		g.scheduleLocked()
	}
	return Receipt{
		Accepted:  len(posts),
		Assigned:  assigned,
		Pending:   g.pending,
		Triggered: triggered,
		Seq:       g.seq,
	}, nil
}

// journalLocked makes one batch durable: it appends a MEMEDELT frame to the
// active journal segment, retrying transient failures with a capped,
// deterministic, doubling backoff. Exhausting the budget flips the ingestor
// into degraded (read-only) mode and refuses the batch with
// ErrJournalDegraded; the next successful append clears the flag.
// Persistence disabled → no-op.
func (g *Ingestor) journalLocked(ctx context.Context, posts []dataset.Post) error {
	if g.cfg.DeltaDir == "" {
		return nil
	}
	if g.broken {
		return fmt.Errorf("%w: torn segment could not be repaired", ErrJournalDegraded)
	}
	var lastErr error
	for attempt := 0; attempt < g.cfg.JournalAttempts; attempt++ {
		if attempt > 0 {
			g.stats.JournalRetries++
			backoff := g.cfg.JournalBackoff << (attempt - 1)
			if backoff > maxJournalBackoff {
				backoff = maxJournalBackoff
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
		}
		err := g.appendFrameLocked(posts)
		if err == nil {
			g.degraded = false
			return nil
		}
		lastErr = err
		if g.broken {
			break
		}
	}
	g.degraded = true
	g.stats.JournalFailures++
	return fmt.Errorf("%w: %d attempts exhausted: %w", ErrJournalDegraded, g.cfg.JournalAttempts, lastErr)
}

// appendFrameLocked writes and syncs one frame, opening a fresh segment
// (named by its starting sequence) when none is active. A failed write rolls
// the file back to the pre-frame offset so torn bytes never poison the
// segment's framing for later appends.
func (g *Ingestor) appendFrameLocked(posts []dataset.Post) error {
	if g.seg == nil {
		if err := faults.Inject("journal.open"); err != nil {
			return fmt.Errorf("ingest: opening journal segment: %w", err)
		}
		name := filepath.Join(g.cfg.DeltaDir, fmt.Sprintf("delta-%016d.dlt", g.seq))
		f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("ingest: opening journal segment: %w", err)
		}
		g.seg = f
		g.segs++
	}
	off, err := g.seg.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("ingest: locating journal tail: %w", err)
	}
	d := pipeline.Delta{FromSeq: g.seq, Posts: posts}
	err = faults.Inject("journal.append.write")
	if err == nil {
		err = pipeline.SaveDelta(faults.WrapWriter("journal.append.write", g.seg), &d)
	}
	if err == nil {
		err = g.seg.Sync()
	}
	if err == nil {
		// Crash site: the frame is durable but the caller was never acked.
		// Replay treats journal contents, not acks, as truth.
		err = faults.Inject("journal.append.sync")
	}
	if err == nil {
		return nil
	}
	if terr := g.seg.Truncate(off); terr == nil {
		_, terr = g.seg.Seek(off, io.SeekStart)
		if terr == nil {
			return fmt.Errorf("ingest: journaling batch: %w", err)
		}
	}
	// The rollback itself failed: the segment may hold torn bytes at an
	// unknown offset, so no further append can be trusted until a restart
	// replays and repairs it.
	g.broken = true
	return fmt.Errorf("%w: journaling batch: %v (rollback failed)", ErrJournalDegraded, err)
}

// scheduleLocked starts the background re-cluster goroutine unless one is
// already running. Called with g.mu held.
func (g *Ingestor) scheduleLocked() {
	if g.inFlight {
		return
	}
	g.inFlight = true
	g.wg.Add(1)
	//memes:goroutine owned by the Ingestor: joined by Close via wg, exits when the pool drains or a rebuild fails
	go g.reclusterLoop()
}

// reclusterLoop drains the pool until the pending level falls below the
// threshold, then parks. A rebuild failure also parks the loop (the needs
// flag makes the next trigger retry).
func (g *Ingestor) reclusterLoop() {
	defer g.wg.Done()
	for {
		err := g.Recluster(context.Background())
		g.mu.Lock()
		if err != nil || g.closed || (g.pending < g.cfg.Threshold && !g.needs) {
			g.inFlight = false
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
	}
}

// Recluster synchronously absorbs the whole pool into the incremental
// pipeline state, re-clusters the affected communities, and publishes the
// resulting build. The active journal segment is sealed first, so the
// journal's sealed prefix always corresponds to what the published engine
// has folded. A no-op when the pool is empty and no retry is owed. After a
// successful publish, a compaction runs when enough sealed segments piled
// up. Serialised with Replay and with itself.
func (g *Ingestor) Recluster(ctx context.Context) error {
	g.reclusterMu.Lock()
	defer g.reclusterMu.Unlock()

	g.mu.Lock()
	batch := g.pool
	g.pool = nil
	g.pending = 0
	retry := g.needs
	g.needs = false
	if g.seg != nil {
		g.seg.Close()
		g.seg = nil
	}
	sealed := g.segs
	g.mu.Unlock()

	if len(batch) == 0 && !retry {
		return nil
	}
	g.inc.AddPosts(batch)
	folded := uint64(g.inc.Added())
	b, err := g.inc.RebuildCtx(ctx, nil)
	if err != nil {
		// The posts are absorbed (inc is consistent); flag a retry so the
		// next trigger rebuilds even with an empty pool.
		g.mu.Lock()
		g.stats.ReclusterFailures++
		g.needs = true
		g.mu.Unlock()
		return err
	}
	// Crash site: the journal is sealed and the rebuild done, but nothing
	// has published yet — restart must replay to the same state.
	_ = faults.Inject("recluster.publish")
	g.cfg.Publish(b)
	g.mu.Lock()
	g.stats.Reclusters++
	g.mu.Unlock()

	if g.cfg.DeltaDir != "" && sealed >= g.cfg.CompactAfter {
		if err := g.compact(ctx, b, folded); err != nil {
			return fmt.Errorf("ingest: compacting journal: %w", err)
		}
	}
	return nil
}

// compact folds the journal: a from-scratch build over the union corpus is
// cross-checked bitwise against the just-published incremental build (the
// determinism invariant, enforced at the moment it matters), written as a
// base MEMESNAP named by the folded sequence, and every sealed segment below
// that sequence is merged into a single head frame. Crash-safe at every
// step: new files land via rename, and a crash between the merge and the
// old-segment cleanup leaves overlaps SpliceDeltas tolerates.
func (g *Ingestor) compact(ctx context.Context, cur *pipeline.BuildResult, folded uint64) error {
	ref, err := pipeline.Build(ctx, cur.Dataset, cur.Site, cur.Config, nil)
	if err != nil {
		return err
	}
	var curBuf, refBuf bytes.Buffer
	if err := cur.Save(&curBuf); err != nil {
		return err
	}
	if err := ref.Save(&refBuf); err != nil {
		return err
	}
	if !bytes.Equal(curBuf.Bytes(), refBuf.Bytes()) {
		return fmt.Errorf("determinism self-check failed: incremental state diverges from a from-scratch build at seq %d", folded)
	}

	// Base snapshot first: replay with the old base plus the full journal
	// stays correct if anything after this fails.
	if err := writeFileAtomic(filepath.Join(g.cfg.DeltaDir, fmt.Sprintf("base-%016d.snap", folded)), curBuf.Bytes()); err != nil {
		return err
	}

	// Merge every sealed segment below the folded sequence into one frame.
	names, err := journalSegments(g.cfg.DeltaDir)
	if err != nil {
		return err
	}
	var frames []pipeline.Delta
	var merged []string
	for _, name := range names {
		start, ok := parseSeq(name, "delta-", ".dlt")
		if !ok || start >= folded {
			continue
		}
		fs, err := readSegment(filepath.Join(g.cfg.DeltaDir, name))
		if err != nil {
			return err
		}
		frames = append(frames, fs...)
		merged = append(merged, name)
	}
	posts, covered, err := pipeline.SpliceDeltas(frames, 0)
	if err != nil {
		return err
	}
	if covered != folded {
		return fmt.Errorf("journal covers seq %d, published state folds %d", covered, folded)
	}
	var head bytes.Buffer
	if err := pipeline.SaveDelta(&head, &pipeline.Delta{FromSeq: 0, Posts: posts}); err != nil {
		return err
	}
	headName := fmt.Sprintf("delta-%016d.dlt", 0)
	if err := writeFileAtomic(filepath.Join(g.cfg.DeltaDir, headName), head.Bytes()); err != nil {
		return err
	}

	// Cleanup: stale segments, then stale bases. Failures here only leave
	// harmless extra files behind, but are still reported. Crash site: dying
	// here leaves the merged head overlapping the old segments, which
	// SpliceDeltas tolerates on replay.
	if err := faults.Inject("compact.cleanup"); err != nil {
		return err
	}
	removed := 0
	for _, name := range merged {
		if name == headName {
			continue
		}
		if err := os.Remove(filepath.Join(g.cfg.DeltaDir, name)); err != nil {
			return err
		}
		removed++
	}
	if err := g.removeStaleBases(folded); err != nil {
		return err
	}

	g.mu.Lock()
	g.stats.Compactions++
	g.segs -= removed
	if !slices.Contains(merged, headName) {
		g.segs++ // first compaction creates the head segment
	}
	g.mu.Unlock()
	return nil
}

// removeStaleBases deletes every base snapshot older than the one named by
// keep.
func (g *Ingestor) removeStaleBases(keep uint64) error {
	entries, err := os.ReadDir(g.cfg.DeltaDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "base-", ".snap"); ok && seq != keep {
			if err := os.Remove(filepath.Join(g.cfg.DeltaDir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replay reads the whole journal and absorbs it into the incremental state:
// the restart path. folded is the sequence already baked into the engine the
// process booted from (LatestBase's sequence, or 0 for a plain base build);
// when the journal covers more than that, a rebuild is published so serving
// catches up before Replay returns. When it covers exactly that, the booted
// clusters are current but its corpus is the one before the journal: the
// served build is rebound to the union corpus, with no re-cluster. Returns
// the number of replayed posts.
func (g *Ingestor) Replay(ctx context.Context, folded uint64) (int, error) {
	if g.cfg.DeltaDir == "" {
		return 0, nil
	}
	g.reclusterMu.Lock()
	defer g.reclusterMu.Unlock()

	names, err := journalSegments(g.cfg.DeltaDir)
	if err != nil {
		return 0, err
	}
	var frames []pipeline.Delta
	segs := len(names)
	torn := int64(0)
	for i, name := range names {
		path := filepath.Join(g.cfg.DeltaDir, name)
		if i < len(names)-1 {
			// Interior segments were sealed by a clean close or written
			// atomically by compaction; anything unparseable in them is
			// corruption, not a crash signature — stay strict and loud.
			fs, err := readSegment(path)
			if err != nil {
				return 0, fmt.Errorf("ingest: replaying %s: %w", name, err)
			}
			frames = append(frames, fs...)
			continue
		}
		// Only the last segment can hold a torn tail: it was the active
		// append target when the process died. Salvage its durable frames
		// and repair the file so future appends see clean framing.
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("ingest: replaying %s: %w", name, err)
		}
		if len(data) == 0 {
			// The process died between opening a fresh segment and writing
			// its first frame. The empty file holds nothing to replay but
			// squats on the name the next append will O_EXCL-create, so it
			// must go.
			if err := os.Remove(path); err != nil {
				return 0, fmt.Errorf("ingest: removing empty %s: %w", name, err)
			}
			segs--
			continue
		}
		fs, validLen, isTorn := pipeline.ReadDeltasTolerant(data)
		if isTorn {
			torn++
			if validLen == 0 {
				// No durable frame: remove the file outright, so the next
				// append can recreate the same starting-sequence name.
				if err := os.Remove(path); err != nil {
					return 0, fmt.Errorf("ingest: repairing torn %s: %w", name, err)
				}
				segs--
			} else if err := os.Truncate(path, validLen); err != nil {
				return 0, fmt.Errorf("ingest: repairing torn %s: %w", name, err)
			}
		}
		frames = append(frames, fs...)
	}
	posts, covered, err := pipeline.SpliceDeltas(frames, 0)
	if err != nil {
		return 0, fmt.Errorf("ingest: replaying journal: %w", err)
	}
	if covered < folded {
		return 0, fmt.Errorf("ingest: journal covers seq %d but the loaded base folds %d", covered, folded)
	}
	g.inc.AddPosts(posts)
	if covered > folded {
		b, err := g.inc.RebuildCtx(ctx, nil)
		if err != nil {
			return 0, err
		}
		g.cfg.Publish(b)
		g.mu.Lock()
		g.stats.Reclusters++
		g.mu.Unlock()
	} else if len(posts) > 0 {
		g.cfg.Rebind(g.inc.UnionDataset())
	}
	g.mu.Lock()
	g.seq = covered
	g.segs = segs
	g.stats.Ingested += int64(len(posts))
	g.stats.TornTails += torn
	g.mu.Unlock()
	return len(posts), nil
}

// Degraded reports whether the ingestor is in read-only mode: the last
// journal append exhausted its retry budget and none has succeeded since.
func (g *Ingestor) Degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded || g.broken
}

// Stats snapshots the counters.
func (g *Ingestor) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.Pending = g.pending
	st.Pool = len(g.pool)
	st.DeltaSegments = g.segs
	st.Seq = g.seq
	st.Degraded = g.degraded || g.broken
	return st
}

// Close stops accepting ingests, waits for the background re-cluster to
// park, and seals the journal. Posts still pooled are journaled already, so
// nothing acknowledged is lost — the next Replay folds them in.
func (g *Ingestor) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seg != nil {
		err := g.seg.Close()
		g.seg = nil
		return err
	}
	return nil
}

// LatestBase locates the newest compacted base snapshot in a delta
// directory. ok is false when the directory holds none (or does not exist) —
// boot from the original corpus and Replay from sequence 0.
func LatestBase(dir string) (path string, seq uint64, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return "", 0, false, nil
	}
	if err != nil {
		return "", 0, false, err
	}
	for _, e := range entries {
		if s, isBase := parseSeq(e.Name(), "base-", ".snap"); isBase && (!ok || s > seq) {
			path, seq, ok = filepath.Join(dir, e.Name()), s, true
		}
	}
	return path, seq, ok, nil
}

// --- journal helpers ---------------------------------------------------------

// journalSegments lists the segment files of a delta dir in ascending
// sequence order (ReadDir sorts by name; the zero-padded names make that the
// numeric order).
func journalSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "delta-", ".dlt"); ok {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// readSegment reads every frame of one segment file.
func readSegment(path string) ([]pipeline.Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pipeline.ReadDeltas(f)
}

// parseSeq extracts the zero-padded sequence from a journal file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(digits) != 16 {
		return 0, false
	}
	var seq uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// writeFileAtomic writes data to path via a temp file and rename, so readers
// never observe a partial file and a crash leaves either the old content or
// the new.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = faults.Inject("snapshot.write")
	if err == nil {
		_, err = faults.WrapWriter("snapshot.write", tmp).Write(data)
	}
	if err != nil {
		tmp.Close()
		return err
	}
	err = tmp.Sync()
	if err == nil {
		err = faults.Inject("snapshot.sync")
	}
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// Crash site: a synced temp file that never renamed is invisible to
	// readers — restart sees the previous base plus the full journal.
	if err := faults.Inject("snapshot.rename"); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

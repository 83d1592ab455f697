package memes

import (
	"context"
	"errors"
	"image"
	"io"
	"sync"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// Engine is the build-once / query-many form of the pipeline. NewEngine runs
// the expensive offline phase (Steps 2-5: cluster the fringe communities,
// materialise medoids, annotate them against the KYM site, and index the
// annotated medoids) exactly once; the Engine then keeps that output
// resident and serves any number of cheap Step 6 queries against it:
//
//   - Associate matches an arbitrary post batch — the posts need not be part
//     of the original dataset — to the annotated clusters.
//   - Match / MatchImage answer single-image lookups, the primitive a
//     serving front-end needs.
//   - Result materialises the legacy one-shot *Result (associating the full
//     build dataset), so NewReport and EstimateInfluence keep working.
//
// All query methods are goroutine-safe: the underlying cluster list and
// medoid index are immutable after NewEngine returns. Queries accept a
// context.Context and stop promptly on cancellation.
type Engine struct {
	build  *pipeline.BuildResult
	once   sync.Once
	res    *Result
	resErr error
}

// StageEvent reports the start or completion of a pipeline stage; see
// WithProgress.
type StageEvent = pipeline.StageEvent

// RunStats records per-stage wall time, throughput, and output counts; it is
// derived from the StageEvent stream.
type RunStats = pipeline.RunStats

// Post is a single post on a Web community.
type Post = dataset.Post

// Association links one post (by index into the associated batch) to an
// annotated cluster.
type Association = pipeline.Association

// Match is the outcome of a single-hash lookup: the winning annotated
// cluster and its Hamming distance from the query.
type Match = pipeline.Match

// Option configures NewEngine and LoadEngine.
type Option func(*engineConfig)

type engineConfig struct {
	cfg      pipeline.Config
	progress pipeline.ProgressFunc
	ds       *Dataset    // LoadEngine only: dataset bound for Result materialisation
	deltas   []io.Reader // LoadEngine only: delta journals replayed over the base
}

// WithWorkers bounds the number of concurrent workers used by every build
// stage and by Associate; zero means GOMAXPROCS. The engine's output is
// identical for any worker count.
func WithWorkers(n int) Option {
	return func(o *engineConfig) { o.cfg.Workers = n }
}

// WithEps sets the DBSCAN clustering radius (Steps 2-3); the paper uses 8.
func WithEps(eps int) Option {
	return func(o *engineConfig) { o.cfg.Clustering.Eps = eps }
}

// WithAnnotationThreshold sets θ for matching cluster medoids against KYM
// gallery images (Step 5).
func WithAnnotationThreshold(theta int) Option {
	return func(o *engineConfig) { o.cfg.AnnotationThreshold = theta }
}

// WithAssociationThreshold sets θ for matching posts against annotated
// cluster medoids (Step 6).
func WithAssociationThreshold(theta int) Option {
	return func(o *engineConfig) { o.cfg.AssociationThreshold = theta }
}

// WithIndex selects the medoid-index strategy the engine's Step 6 serve
// path queries: IndexMultiIndex (the default), IndexBKTree, or IndexSharded
// — see IndexStrategies for the full registered set. Every strategy serves
// bitwise-identical Associate/Match/Result output; the choice only shapes
// the cost profile (banded lookups vs single-tree pruning vs parallel
// sharded fan-out). Applies to both NewEngine and LoadEngine. A snapshot's
// bytes do not depend on the strategy, so a snapshot written under one
// loads under any other: IndexBKTree serves the sealed medoid tree a v2
// snapshot stores, and the other strategies index the stored medoids at
// load.
func WithIndex(s IndexStrategy) Option {
	return func(o *engineConfig) { o.cfg.Index = s }
}

// WithDataset binds a corpus to an engine loaded from a snapshot so
// Engine.Result can materialise the legacy full-corpus result. It applies
// to LoadEngine only; NewEngine already receives its dataset positionally
// and rejects this option.
func WithDataset(ds *Dataset) Option {
	return func(o *engineConfig) { o.ds = ds }
}

// WithDeltas layers streaming-ingest delta journals over a loaded base
// snapshot: every frame of every reader is read, spliced into one
// contiguous post stream (tolerating the overlaps a crashed compaction
// leaves behind), and absorbed through the same incremental re-cluster path
// a live Ingestor uses. The resulting engine is bitwise-identical to a
// from-scratch build over the bound dataset plus the delta posts in journal
// order.
//
// Applies to LoadEngine only and requires WithDataset (the base corpus the
// snapshot was built from — the deltas extend it). The snapshot supplies
// the configuration echo; an empty journal loads the snapshot as-is.
func WithDeltas(rs ...io.Reader) Option {
	return func(o *engineConfig) { o.deltas = append(o.deltas, rs...) }
}

// WithProgress registers an observer for per-stage progress events. The
// function is called synchronously, in stage order, from the goroutine
// driving the stage; it must not block for long.
func WithProgress(fn func(StageEvent)) Option {
	return func(o *engineConfig) { o.progress = fn }
}

// NewEngine runs the build phase (Steps 2-5) over a dataset and an
// annotation site and returns an Engine serving queries against the result.
// Use ds.Site(true) for a site with screenshots already filtered (Step 4).
// The build stops promptly with ctx's error when ctx is cancelled.
func NewEngine(ctx context.Context, ds *Dataset, site *AnnotationSite, opts ...Option) (*Engine, error) {
	ec := engineConfig{cfg: pipeline.DefaultConfig()}
	for _, opt := range opts {
		opt(&ec)
	}
	if ec.ds != nil {
		return nil, errors.New("memes: WithDataset applies only to LoadEngine; NewEngine receives its dataset positionally")
	}
	if len(ec.deltas) > 0 {
		return nil, errors.New("memes: WithDeltas applies only to LoadEngine; NewEngine builds from its dataset directly")
	}
	b, err := pipeline.Build(ctx, ds, site, ec.cfg, ec.progress)
	if err != nil {
		return nil, err
	}
	return &Engine{build: b}, nil
}

// Save writes a versioned binary snapshot of the engine's build phase
// (Steps 2-5 output: config echo, per-community clusterings, cluster
// metadata, medoid hashes) to w. LoadEngine reconstitutes a serving engine
// from the snapshot without re-running the build — build once on a big box,
// ship the snapshot, serve anywhere. Save writes SnapshotLatest, which also
// stores the sealed medoid BK-tree; the bytes are the same under every
// index strategy (see WithIndex). The dataset and the annotation site are
// not persisted (the site is re-bound at load, a dataset optionally so).
func (e *Engine) Save(w io.Writer) error { return e.build.Save(w) }

// Snapshot format versions accepted by Engine.SaveVersion. Save always
// writes SnapshotLatest; LoadEngine and LoadEngineFile read every version.
const (
	// SnapshotV1 is the original streaming varint format. The medoid index
	// is rebuilt from the persisted medoids at load.
	SnapshotV1 = pipeline.SnapshotV1
	// SnapshotV2 is the flat offset-based format: fixed-width tables, one
	// string arena, and the sealed medoid BK-tree serialized in array form,
	// so a load decodes the tables without a per-cluster varint walk and
	// the bktree strategy serves the stored tree without rebuilding it.
	SnapshotV2 = pipeline.SnapshotV2
	// SnapshotLatest is the version Engine.Save writes.
	SnapshotLatest = pipeline.SnapshotLatest
)

// SaveVersion writes a snapshot in an explicit format version: SnapshotV1
// for compatibility with readers predating the flat format, SnapshotV2 for
// the flat layout Save defaults to. Both versions reconstitute
// bitwise-identical engines.
func (e *Engine) SaveVersion(w io.Writer, version uint32) error {
	return e.build.SaveVersion(w, version)
}

// Close is a no-op that always returns nil. An engine, loaded or built,
// holds only Go memory, which the garbage collector reclaims once the
// engine is unreachable; an engine may keep serving after Close. It stays
// for callers that release what they are done with.
func (e *Engine) Close() error { return e.build.Close() }

// LoadEngine reads a snapshot written by Engine.Save and returns an Engine
// serving queries against it, skipping the entire Steps 2-5 build. The
// annotation site must carry the entries the snapshot references (use the
// same filtered site the build used); a mismatch fails loudly.
//
// The build-phase configuration (clustering thresholds) is restored from
// the snapshot and is an echo only — the clusters are already built.
// Serving options do take effect: WithWorkers and WithIndex override the
// snapshot's worker count and index strategy, WithDataset binds a corpus so
// Engine.Result can materialise the legacy full-corpus result, and
// WithProgress observes the single "load" stage event pair (the observable
// proof that Steps 2-5 never ran).
func LoadEngine(r io.Reader, site *AnnotationSite, opts ...Option) (*Engine, error) {
	ec := engineConfig{cfg: pipeline.DefaultConfig()}
	for _, opt := range opts {
		opt(&ec)
	}
	b, err := pipeline.LoadBuild(r, site, ec.ds, func(cfg *pipeline.Config) {
		// Re-apply the options over the decoded snapshot configuration, so
		// explicit overrides win and everything else keeps the build-time
		// echo.
		over := engineConfig{cfg: *cfg}
		for _, opt := range opts {
			opt(&over)
		}
		*cfg = over.cfg
	}, ec.progress)
	if err != nil {
		return nil, err
	}
	if len(ec.deltas) > 0 {
		b, err = replayDeltas(b, site, ec)
		if err != nil {
			return nil, err
		}
	}
	return &Engine{build: b}, nil
}

// LoadEngineFile is LoadEngine for a snapshot on disk. It reads the whole
// file into memory once and decodes from those bytes, so the engine owns
// everything it serves: overwriting or truncating the file afterwards
// cannot change its answers, and a new snapshot takes effect only through
// a fresh load. All LoadEngine options apply, including WithDataset and
// WithDeltas.
func LoadEngineFile(path string, site *AnnotationSite, opts ...Option) (*Engine, error) {
	ec := engineConfig{cfg: pipeline.DefaultConfig()}
	for _, opt := range opts {
		opt(&ec)
	}
	b, err := pipeline.LoadBuildFile(path, site, ec.ds, func(cfg *pipeline.Config) {
		over := engineConfig{cfg: *cfg}
		for _, opt := range opts {
			opt(&over)
		}
		*cfg = over.cfg
	}, ec.progress)
	if err != nil {
		return nil, err
	}
	if len(ec.deltas) > 0 {
		b, err = replayDeltas(b, site, ec)
		if err != nil {
			return nil, err
		}
	}
	return &Engine{build: b}, nil
}

// replayDeltas folds delta journals into a freshly loaded base build; see
// WithDeltas.
func replayDeltas(b *pipeline.BuildResult, site *AnnotationSite, ec engineConfig) (*pipeline.BuildResult, error) {
	if ec.ds == nil {
		return nil, errors.New("memes: WithDeltas requires WithDataset (the base corpus the deltas extend)")
	}
	var frames []pipeline.Delta
	for _, r := range ec.deltas {
		fs, err := pipeline.ReadDeltas(r)
		if err != nil {
			return nil, err
		}
		frames = append(frames, fs...)
	}
	posts, _, err := pipeline.SpliceDeltas(frames, 0)
	if err != nil {
		return nil, err
	}
	if len(posts) == 0 {
		return b, nil
	}
	inc, err := pipeline.NewIncremental(ec.ds, site, b.Config)
	if err != nil {
		return nil, err
	}
	inc.AddPosts(posts)
	return inc.RebuildCtx(context.Background(), ec.progress)
}

// Associate runs Step 6 over an arbitrary batch of posts: every image post
// is matched against the annotated-cluster medoids, the nearest medoid
// within the association threshold winning (ties broken by lowest cluster
// ID). PostIndex in the returned associations indexes into posts, which come
// out sorted by that index. Goroutine-safe; stops promptly on cancellation.
func (e *Engine) Associate(ctx context.Context, posts []Post) ([]Association, error) {
	return e.build.Associate(ctx, posts)
}

// AssociateAppend is Associate for callers that own the result buffer: it
// appends the batch's associations to out and returns the extended slice,
// allocating nothing in steady state when out has capacity (pass a slice
// recycled with out[:0]). The associations are identical to Associate's for
// the same batch. Goroutine-safe; stops promptly on cancellation.
//
//memes:noalloc
func (e *Engine) AssociateAppend(ctx context.Context, posts []Post, out []Association) ([]Association, error) {
	return e.build.AssociateAppend(ctx, posts, out)
}

// Match looks a single perceptual hash up against the annotated clusters.
// The boolean is false when no annotated medoid lies within the association
// threshold. Goroutine-safe. ctx is checked once, before the probe: a
// cancelled ctx fails the lookup, and a probe that has started completes.
func (e *Engine) Match(ctx context.Context, h Hash) (Match, bool, error) {
	return e.build.MatchCtx(ctx, h)
}

// MatchImage hashes an image (Step 1) and looks it up with Match. memeserve's
// /v1/match/image does the same two steps itself; its test uses MatchImage
// as the oracle.
func (e *Engine) MatchImage(ctx context.Context, img image.Image) (Match, bool, error) {
	if err := ctx.Err(); err != nil {
		return Match{}, false, err
	}
	h, err := phash.FromImage(img)
	if err != nil {
		return Match{}, false, err
	}
	return e.Match(ctx, h)
}

// Clusters returns every cluster of the build (Steps 2-5 output), indexed by
// ID. The slice is shared with the engine; treat it as read-only.
func (e *Engine) Clusters() []ClusterInfo { return e.build.Clusters }

// Communities returns the fringe communities the build clustered, in the
// fixed Communities order used everywhere else.
func (e *Engine) Communities() []Community { return e.build.Communities() }

// BuildStats returns the timing of the build phase (cluster and annotate
// stages).
func (e *Engine) BuildStats() RunStats { return e.build.Stats() }

// Result materialises the legacy one-shot *Result by associating every post
// of the build dataset (Step 6) and merging the build stats. The result is
// computed once and cached; subsequent calls return the same pointer.
// Goroutine-safe. Clusters, associations, and summaries are identical to
// a one-shot build and association of the same dataset and configuration
// (the internal pipeline.Run, which the tests compare against). An engine
// loaded from a snapshot must have a corpus bound (LoadEngine with
// WithDataset) or Result panics; Associate and Match never need one.
func (e *Engine) Result() *Result {
	res, err := e.result()
	if err != nil {
		// Reachable when the engine was loaded from a snapshot without
		// WithDataset — Result needs the build corpus to associate. Fail
		// loudly with the fix in the message rather than handing callers
		// a nil.
		panic("memes: Engine.Result materialisation failed: " + err.Error())
	}
	return res
}

// TryResult is Result for callers that can handle the failure mode: it
// returns the materialisation error instead of panicking when the engine
// was loaded without a bound dataset. The serving layer uses it to answer
// analysis endpoints with 503 rather than crashing the process.
func (e *Engine) TryResult() (*Result, error) { return e.result() }

// ResultFor materialises a Result over an arbitrary post slice instead of
// the build corpus: the posts are associated against the resident clusters
// and wrapped with the bound dataset's corpus window and ground-truth
// tables. This is the replay primitive behind `memereport -replay` —
// posts recovered from a served decision log regenerate the paper's tables
// from real traffic. Requires a bound dataset, like Result.
func (e *Engine) ResultFor(ctx context.Context, posts []Post) (*Result, error) {
	return e.build.ResultFor(ctx, posts)
}

// SnapshotVersion reports the MEMESNAP format version the engine was loaded
// from (1 or 2), or 0 for an engine built in memory by NewEngine. Exposed
// as the memes_snapshot_version gauge on /v1/metrics.
func (e *Engine) SnapshotVersion() uint32 { return e.build.SnapshotVersion() }

// result materialises and caches the legacy Result, keeping the error for
// callers (TryResult) that can propagate it.
func (e *Engine) result() (*Result, error) {
	e.once.Do(func() {
		e.res, e.resErr = e.build.Result(context.Background())
	})
	return e.res, e.resErr
}

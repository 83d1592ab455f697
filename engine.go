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

// ProgressFunc observes stage events during the build and during Result
// materialisation.
type ProgressFunc = pipeline.ProgressFunc

// RunStats records per-stage wall time, throughput, and output counts; it is
// derived from the StageEvent stream.
type RunStats = pipeline.RunStats

// StageStats records the wall-clock cost of one pipeline stage.
type StageStats = pipeline.StageStats

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
	cfg      PipelineConfig
	progress ProgressFunc
	ds       *Dataset    // LoadEngine only: dataset bound for Result materialisation
	deltas   []io.Reader // LoadEngine only: delta journals replayed over the base
}

// WithConfig replaces the engine's entire pipeline configuration. It is
// applied in option order, so thresholds set by earlier options are
// overwritten; pass it first when combining with the field-level options.
func WithConfig(cfg PipelineConfig) Option {
	return func(o *engineConfig) { o.cfg = cfg }
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

// WithMinPts sets the DBSCAN core-point density (Steps 2-3); the paper
// uses 5.
func WithMinPts(minPts int) Option {
	return func(o *engineConfig) { o.cfg.Clustering.MinPts = minPts }
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
// sharded fan-out). Applies to both NewEngine and LoadEngine — snapshots
// never persist the index itself, so a snapshot written under one strategy
// loads under any other.
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
	ec := engineConfig{cfg: DefaultPipelineConfig()}
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
// ship the snapshot, serve anywhere. The medoid index is rebuilt from the
// persisted medoids on load, so snapshots are index-strategy-agnostic; the
// dataset and the annotation site are likewise not persisted (the site is
// re-bound at load, a dataset optionally so).
func (e *Engine) Save(w io.Writer) error { return e.build.Save(w) }

// Snapshot format versions accepted by Engine.SaveVersion. Save always
// writes SnapshotLatest; LoadEngine and LoadEngineFile read every version.
const (
	// SnapshotV1 is the original streaming varint format. The medoid index
	// is rebuilt from the persisted medoids at load.
	SnapshotV1 = pipeline.SnapshotV1
	// SnapshotV2 is the flat offset-based format: fixed-width tables, one
	// string arena, and the sealed medoid BK-tree serialized in array form,
	// so LoadEngineFile can mmap the file and serve directly from the
	// mapped bytes without rebuilding anything.
	SnapshotV2 = pipeline.SnapshotV2
	// SnapshotLatest is the version Engine.Save writes.
	SnapshotLatest = pipeline.SnapshotLatest
)

// SaveVersion writes a snapshot in an explicit format version: SnapshotV1
// for compatibility with readers predating the flat format, SnapshotV2 for
// the mmap-ready layout Save defaults to. Both versions reconstitute
// bitwise-identical engines.
func (e *Engine) SaveVersion(w io.Writer, version uint32) error {
	return e.build.SaveVersion(w, version)
}

// Close releases the snapshot memory mapping backing an engine returned by
// LoadEngineFile, after which the engine must not serve further queries.
// Closing is optional — an unclosed mapping is released by the garbage
// collector once the engine is unreachable — and deliberately NOT wired
// into the hot-swap path: an old generation may still be pinned by
// in-flight requests when a new one activates, so HotEngine lets the
// collector retire it. Close is for callers that churn through many loaded
// engines and want the address space back deterministically. It is
// idempotent, and a no-op for engines not backed by a mapping.
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
	ec := engineConfig{cfg: DefaultPipelineConfig()}
	for _, opt := range opts {
		opt(&ec)
	}
	b, err := pipeline.LoadBuild(r, site, ec.ds, func(cfg *PipelineConfig) {
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

// LoadEngineFile is LoadEngine for a snapshot on disk. For a SnapshotV2
// file it memory-maps the flat layout (falling back to a single read where
// mmap is unavailable) and serves directly from the mapped bytes — the
// medoid index is loaded, not rebuilt, so time-to-first-query is dominated
// by the page cache rather than by tree construction. Older snapshot
// versions are read through the same path LoadEngine uses. All LoadEngine
// options apply, including WithDataset and WithDeltas.
func LoadEngineFile(path string, site *AnnotationSite, opts ...Option) (*Engine, error) {
	ec := engineConfig{cfg: DefaultPipelineConfig()}
	for _, opt := range opts {
		opt(&ec)
	}
	b, err := pipeline.LoadBuildFile(path, site, ec.ds, func(cfg *PipelineConfig) {
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
// threshold. Goroutine-safe; index strategies with internal query fan-out
// honour cancellation mid-query.
func (e *Engine) Match(ctx context.Context, h Hash) (Match, bool, error) {
	return e.build.MatchCtx(ctx, h)
}

// MatchImage hashes an image (Step 1) and looks it up with Match.
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

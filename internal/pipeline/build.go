package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// BuildResult is the resident output of the build phase (Steps 2-5): the
// per-community clusterings, the annotated clusters, and the read-only
// medoid index over annotated-cluster medoids that Step 6 queries. Build it
// once, then serve any number of Associate / Match queries against it — the
// build/serve split the paper implies when it runs Step 6 over 160M images
// against a fixed set of annotated clusters. The index strategy is selected
// by Config.Index (see internal/index); every strategy serves identical
// results.
//
// A BuildResult is immutable after Build returns and safe for concurrent use
// by multiple goroutines. Save persists it; LoadBuild reconstitutes it
// without re-running Steps 2-5.
type BuildResult struct {
	// Config echoes the configuration used.
	Config Config
	// Dataset is the corpus the build ran on; nil for a BuildResult loaded
	// from a snapshot without a bound dataset.
	Dataset *dataset.Dataset
	// Site is the annotation site used for Step 5.
	Site *annotate.Site
	// PerCommunity holds the clustering summary of each fringe community.
	PerCommunity map[dataset.Community]CommunityClustering
	// Clusters lists every cluster across the fringe communities; Clusters[i].ID == i.
	Clusters []ClusterInfo

	medoids     index.MedoidIndex     // index over annotated-cluster medoids, read-only
	nw          index.NearestWithiner // medoids, when it answers Step 6 in one fused pass
	sq          index.ScratchQuerier  // medoids, when it serves the zero-alloc scratch path
	scratch     *sync.Pool            // *phash.Scratch per querying goroutine
	buildStats  RunStats              // cluster + annotate (or load) stage records
	buildWall   time.Duration         // end-to-end wall time of Build (or LoadBuild)
	progress    ProgressFunc          // forwarded to Result's associate stage
	snapVersion uint32                // MEMESNAP version loaded from; 0 for in-memory builds
}

// SnapshotVersion reports the MEMESNAP format version this BuildResult was
// reconstituted from: 1 for the varint streaming layout, 2 for the flat
// offset-based layout, and 0 for a result built in memory rather than
// loaded from a snapshot. Serving exposes it as a gauge so operators can
// tell which artifact generation a replica is running.
func (b *BuildResult) SnapshotVersion() uint32 { return b.snapVersion }

// Close is a no-op kept for callers that release an engine when done with
// it: a BuildResult holds only Go memory, which the garbage collector
// reclaims once it is unreachable. A loaded snapshot is read whole into
// memory, so nothing written to the file after the load can change it.
func (b *BuildResult) Close() error { return nil }

// Rebind returns a copy of b bound to ds, a corpus whose clusters b already
// holds: the restart path, where a compacted base folds every journaled post
// but was loaded over the corpus from before them. Nothing is rebuilt; the
// clusters and the medoid index are shared.
func (b *BuildResult) Rebind(ds *dataset.Dataset) *BuildResult {
	c := *b
	c.Dataset = ds
	return &c
}

// Match is the outcome of a single-hash lookup against the annotated
// clusters: the winning cluster and its Hamming distance from the query.
type Match struct {
	// ClusterID indexes into BuildResult.Clusters (and Result.Clusters).
	ClusterID int
	// Distance is the Hamming distance between the query hash and the
	// cluster medoid.
	Distance int
}

// Build executes the expensive offline phase (Steps 2-5) over a dataset and
// an annotation site: per-community DBSCAN clustering, medoid
// materialisation, and medoid annotation, plus construction of the Step 6
// medoid index. The stages run concurrently on Config.Workers workers, but
// the returned BuildResult (clusters, IDs, summaries) is identical for every
// worker count.
//
// Build stops promptly when ctx is cancelled and returns the context error;
// progress (optional) observes stage start/completion events.
func Build(ctx context.Context, ds *dataset.Dataset, site *annotate.Site, cfg Config, progress ProgressFunc) (*BuildResult, error) {
	if ds == nil || site == nil {
		return nil, errors.New("pipeline: nil dataset or site")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := &BuildResult{
		Config:       cfg,
		Dataset:      ds,
		Site:         site,
		PerCommunity: make(map[dataset.Community]CommunityClustering),
		progress:     progress,
	}
	workers := parallel.Workers(cfg.Workers)
	b.buildStats.Workers = workers
	start := now()
	em := emitter{stats: &b.buildStats, progress: progress}

	var fringe []dataset.Community
	for _, comm := range dataset.Communities() {
		if comm.Fringe() {
			fringe = append(fringe, comm)
		}
	}

	// Steps 2-3 run in two phases so total CPU-bound concurrency never
	// exceeds the configured worker bound while skewed community sizes
	// (/pol/ dominates) still saturate the pool. Phase one: DBSCAN every
	// fringe community concurrently (the fan-out itself is capped at
	// `workers`, and each community's parallel neighbourhood scan gets
	// workers/concurrent of the budget — floor division, mirroring the
	// medoid budget split below, so the total stays within the bound at
	// the cost of idling the remainder). Phase two: materialise medoids
	// one community at a time, each
	// with the full budget. Partials are indexed by the fixed
	// dataset.Communities() order, so the merge below assigns the same
	// cluster IDs for any worker count.
	stageStart := em.start(StageCluster)
	dbscanBudget := 1
	if concurrent := min(workers, len(fringe)); concurrent > 0 {
		if dbscanBudget = workers / concurrent; dbscanBudget < 1 {
			dbscanBudget = 1
		}
	}
	partials, err := parallel.MapErrCtx(ctx, len(fringe), workers, func(i int) (communityPartial, error) {
		p, err := clusterCommunity(ctx, ds, fringe[i], cfg, dbscanBudget)
		if err != nil {
			return communityPartial{}, fmt.Errorf("pipeline: clustering %v: %w", fringe[i], err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	fringeImages, totalClusters := 0, 0
	for i := range partials {
		p := &partials[i]
		if len(p.hashes) > 0 {
			clusters, err := cluster.MaterializeParallelCtx(ctx, p.hashes, p.counts, p.dbres, workers)
			if err != nil {
				return nil, err
			}
			p.clusters = clusters
			p.summary.Clusters = len(p.clusters)
		}
		fringeImages += p.summary.Images
		totalClusters += len(p.clusters)
	}
	em.done(StageCluster, stageStart, fringeImages)

	// The neighbourhood-scan throughput — the paper's GPU pairwise step —
	// is surfaced as its own stage record so the perf trajectory tracks it
	// separately from medoid materialisation.
	var neighDur time.Duration
	neighPoints := 0
	for i := range partials {
		neighDur += partials[i].dbres.Neighbourhoods.Duration
		neighPoints += partials[i].dbres.Neighbourhoods.Points
	}
	em.record(StageNeighbours, neighDur, neighPoints)

	// Step 5 plus the merge and index build, shared with the incremental
	// rebuild path so both assign byte-identical IDs and annotations.
	annotated, err := assemble(ctx, b, fringe, partials, workers, em)
	if err != nil {
		return nil, err
	}

	b.buildStats.FringeImages = fringeImages
	b.buildStats.Clusters = len(b.Clusters)
	b.buildStats.AnnotatedClusters = annotated
	b.buildWall = since(start)
	return b, nil
}

// assemble runs Step 5 (batch medoid annotation) over fully materialised
// partials, merges them into b in fixed community order — assigning stable
// sequential cluster IDs — and builds the Step 6 index. It returns the
// annotated-cluster count. Shared by Build and Incremental.RebuildCtx: the
// streaming path's determinism guarantee (bitwise-identical clusters to a
// from-scratch build over the union corpus) holds by construction because
// both paths run this exact code over identical partials.
func assemble(ctx context.Context, b *BuildResult, fringe []dataset.Community, partials []communityPartial, workers int, em emitter) (int, error) {
	totalClusters := 0
	for i := range partials {
		totalClusters += len(partials[i].clusters)
	}

	// Step 5: batch-annotate every medoid across all communities at once.
	stageStart := em.start(StageAnnotate)
	medoids := make([]phash.Hash, 0, totalClusters)
	for _, p := range partials {
		for _, c := range p.clusters {
			medoids = append(medoids, c.MedoidHash)
		}
	}
	annotations, err := b.Site.AnnotateBatchCtx(ctx, medoids, b.Config.AnnotationThreshold, workers)
	if err != nil {
		return 0, err
	}

	// Merge in fixed community order, assigning stable cluster IDs.
	at := 0
	for pi, p := range partials {
		summary := p.summary
		for _, c := range p.clusters {
			ann := annotations[at]
			at++
			info := ClusterInfo{
				ID:             len(b.Clusters),
				Community:      fringe[pi],
				Label:          c.Label,
				MedoidHash:     c.MedoidHash,
				Images:         c.Size,
				DistinctHashes: len(c.Members),
				Annotation:     ann,
			}
			for _, m := range ann.Matches {
				if m.Entry.IsRacist() {
					info.Racist = true
				}
				if m.Entry.IsPolitical() {
					info.Political = true
				}
			}
			if ann.Annotated() {
				summary.Annotated++
			}
			b.Clusters = append(b.Clusters, info)
		}
		b.PerCommunity[fringe[pi]] = summary
	}
	em.done(StageAnnotate, stageStart, totalClusters)

	// The Step 6 index, built once and queried by every Associate / Match.
	return b.buildIndex()
}

// buildIndex (re)builds the Step 6 medoid index from the annotated clusters
// using the configured strategy, and returns the annotated-cluster count. It
// is shared by Build and LoadBuild — the index is always reconstructed from
// medoid hashes, never persisted, so snapshots stay strategy-agnostic.
func (b *BuildResult) buildIndex() (int, error) {
	idx, err := index.New(b.Config.Index)
	if err != nil {
		return 0, err
	}
	// One Workers knob governs every stage: indexes with internal per-query
	// fan-out (sharded) inherit the same bound as the post-batch workers.
	if wb, ok := idx.(index.WorkerBound); ok {
		wb.SetWorkers(b.Config.Workers)
	}
	annotated := 0
	for i := range b.Clusters {
		if b.Clusters[i].Annotated() {
			idx.Insert(b.Clusters[i].MedoidHash, int64(b.Clusters[i].ID))
			annotated++
		}
	}
	b.setIndex(idx)
	return annotated, nil
}

// setIndex installs a fully populated medoid index: strategies that support
// it are sealed into their flat, immutable form, and the cheapest query path
// the index offers is cached — the fused NearestWithin, else the scratch
// radius path, for which every Match/Associate afterwards reuses pooled
// per-goroutine scratch instead of allocating candidate stacks and result
// buffers per query.
func (b *BuildResult) setIndex(idx index.MedoidIndex) {
	if s, ok := idx.(index.Sealer); ok {
		s.Seal()
	}
	b.medoids = idx
	b.nw, _ = idx.(index.NearestWithiner)
	b.sq, _ = idx.(index.ScratchQuerier)
	b.scratch = &sync.Pool{New: func() any { return new(phash.Scratch) }}
}

// Stats returns the build-phase stage records (cluster and annotate); the
// associate stage is recorded per materialisation by Result.
func (b *BuildResult) Stats() RunStats {
	s := b.buildStats
	s.Stages = append([]StageStats(nil), b.buildStats.Stages...)
	s.Total = b.buildWall
	return s
}

// Communities returns the fringe communities present in PerCommunity in the
// fixed dataset.Communities() order.
func (b *BuildResult) Communities() []dataset.Community {
	return communitiesOf(b.PerCommunity)
}

// Associate runs Step 6 over an arbitrary batch of posts — they need not be
// part of the dataset the build ran on. Every image post is matched against
// the annotated-cluster medoid index; the nearest medoid within the
// association threshold wins, with ties broken by the lowest cluster ID.
// PostIndex in the returned associations indexes into posts, which come out
// sorted by that index.
//
// Associate is goroutine-safe (the medoid index is read-only) and stops
// promptly with ctx.Err() when ctx is cancelled. The result is identical for
// any worker count.
func (b *BuildResult) Associate(ctx context.Context, posts []dataset.Post) ([]Association, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.medoids.Len() == 0 {
		return nil, ctx.Err()
	}
	return parallel.MapChunksCtx(ctx, len(posts), b.Config.Workers, func(lo, hi int) []Association {
		var out []Association
		for i := lo; i < hi; i++ {
			p := &posts[i]
			if !p.HasImage {
				continue
			}
			// The chunk fan-out already honours ctx; the per-hash index
			// probe runs uncancelled so a chunk's associations are all-or-
			// nothing.
			if m, ok := b.match(p.PHash()); ok {
				out = append(out, Association{PostIndex: i, ClusterID: m.ClusterID, Distance: m.Distance})
			}
		}
		return out
	})
}

// AssociateAppend is Associate for resident serving loops: it appends the
// associations for posts to out and returns the extended slice, so a caller
// that reuses its buffer (out = out[:0] between batches) pays zero
// steady-state allocations — the batch result, the per-query candidate
// stacks, and the radius buffers all live in reused memory. The produced
// associations are bitwise identical to Associate's for the same posts.
//
// The batch runs on the calling goroutine (serving layers batch many small
// requests, so parallelism across batches beats fan-out within one); ctx is
// checked on entry and every 1024 posts.
//
//memes:noalloc
func (b *BuildResult) AssociateAppend(ctx context.Context, posts []dataset.Post, out []Association) ([]Association, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if b.medoids.Len() == 0 {
		return out, nil
	}
	for i := range posts {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		p := &posts[i]
		if !p.HasImage {
			continue
		}
		if m, ok := b.match(p.PHash()); ok {
			out = append(out, Association{PostIndex: i, ClusterID: m.ClusterID, Distance: m.Distance})
		}
	}
	return out, nil
}

// Match looks a single perceptual hash up against the annotated clusters
// (Step 6 for one image). The boolean is false when no annotated medoid lies
// within the association threshold. Goroutine-safe.
//
//memes:noalloc
func (b *BuildResult) Match(h phash.Hash) (Match, bool) { return b.match(h) }

// MatchCtx is Match with a ctx check on entry: an index probe is short and
// blocks on nothing, so there is no later point worth cancelling at.
// Goroutine-safe.
func (b *BuildResult) MatchCtx(ctx context.Context, h phash.Hash) (Match, bool, error) {
	if err := ctx.Err(); err != nil {
		return Match{}, false, err
	}
	m, ok := b.match(h)
	return m, ok, nil
}

// match picks the deterministic winner among the medoids within the
// association threshold: the minimum distance, with ties broken by the
// lowest cluster ID across all matches at that distance, so the index's
// traversal order never shows through — a hard requirement for every
// strategy to serve bitwise-equal results. An index with a fused
// NearestWithin reduces as it probes and nothing is materialised; one with
// the scratch path runs the probe through pooled per-goroutine scratch,
// which pickMatch only reads and which is back in the pool before the
// reduced answer escapes. Neither allocates in steady state.
//
//memes:noalloc
func (b *BuildResult) match(h phash.Hash) (Match, bool) {
	if b.nw != nil {
		id, d, ok := b.nw.NearestWithin(h, b.Config.AssociationThreshold)
		return Match{ClusterID: int(id), Distance: d}, ok
	}
	if b.sq != nil {
		sc := b.scratch.Get().(*phash.Scratch)
		m, ok := pickMatch(b.sq.RadiusScratch(h, b.Config.AssociationThreshold, sc))
		b.scratch.Put(sc)
		return m, ok
	}
	return pickMatch(b.medoids.Radius(h, b.Config.AssociationThreshold))
}

// pickMatch reduces a radius match set to the deterministic winner.
func pickMatch(matches []phash.Match) (Match, bool) {
	if len(matches) == 0 {
		return Match{}, false
	}
	bestDist := phash.MaxDistance + 1
	var bestID int64
	for _, m := range matches {
		for _, id := range m.IDs {
			if m.Distance < bestDist || (m.Distance == bestDist && id < bestID) {
				bestDist, bestID = m.Distance, id
			}
		}
	}
	return Match{ClusterID: int(bestID), Distance: bestDist}, true
}

// Result materialises the legacy one-shot Result from the build: it runs
// Associate over the full build dataset (Step 6) and merges the build-phase
// stats with the associate stage timing, so downstream consumers
// (analysis.NewReport, hawkes influence estimation) keep working unchanged.
// The Result shares the build's clusters and summaries; treat both as
// read-only.
func (b *BuildResult) Result(ctx context.Context) (*Result, error) {
	if b.Dataset == nil {
		return nil, errors.New("pipeline: build has no dataset bound; load the snapshot with a dataset to materialise a Result")
	}
	return b.materialise(ctx, b.Dataset)
}

// ResultFor materialises a Result whose associations cover an arbitrary post
// slice instead of the build corpus. This is the replay primitive behind
// `memereport -replay`: posts reconstructed from a served decision log are
// re-associated against the resident clusters, so the paper's tables
// regenerate from real served traffic. The returned Result carries a shallow
// copy of the build dataset with Posts swapped for the given slice; the
// cluster inventory and per-community summaries remain the build's — the
// artifact is fixed, only the traffic varies. A bound dataset is still
// required: it supplies the corpus observation window (Start/End) and the
// ground-truth tables the report renders against.
func (b *BuildResult) ResultFor(ctx context.Context, posts []dataset.Post) (*Result, error) {
	if b.Dataset == nil {
		return nil, errors.New("pipeline: build has no dataset bound; replay needs the corpus window and ground-truth tables")
	}
	ds := *b.Dataset
	ds.Posts = posts
	return b.materialise(ctx, &ds)
}

// materialise runs Step 6 over ds.Posts and assembles the Result shared by
// Result (full corpus) and ResultFor (replayed traffic).
func (b *BuildResult) materialise(ctx context.Context, ds *dataset.Dataset) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := now()
	res := &Result{
		Config:       b.Config,
		Dataset:      ds,
		Site:         b.Site,
		PerCommunity: b.PerCommunity,
		Clusters:     b.Clusters,
		Stats:        b.buildStats,
	}
	res.Stats.Stages = append([]StageStats(nil), b.buildStats.Stages...)
	em := emitter{stats: &res.Stats, progress: b.progress}

	imagePosts := 0
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			imagePosts++
		}
	}
	stageStart := em.start(StageAssociate)
	assoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		return nil, err
	}
	res.Associations = assoc
	em.done(StageAssociate, stageStart, imagePosts)

	res.Stats.Total = b.buildWall + since(start)
	res.Stats.TotalImages = imagePosts
	res.Stats.Associations = len(assoc)
	return res, nil
}

// communitiesOf returns the fringe communities present in the summary map in
// the fixed dataset.Communities() order, so ranging over per-community
// summaries is reproducible.
func communitiesOf(per map[dataset.Community]CommunityClustering) []dataset.Community {
	var out []dataset.Community
	for _, c := range dataset.Communities() {
		if _, ok := per[c]; ok {
			out = append(out, c)
		}
	}
	return out
}

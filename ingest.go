package memes

import (
	"context"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/ingest"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// Ingestor absorbs new posts into a running serving process: posts already
// matching an annotated medoid are servable immediately, the rest park in a
// bounded pending pool, and crossing a threshold triggers an incremental
// re-cluster of only the affected communities, published through
// HotEngine.Swap with zero dropped requests. Accepted batches are journaled
// as delta snapshots (when a delta dir is configured) and folded into a
// compacted base snapshot in the background. See NewIngestor.
type Ingestor = ingest.Ingestor

// ErrIngestPoolFull rejects an ingest batch that would overflow the pending
// pool — the backpressure signal that re-clustering is not keeping up.
var ErrIngestPoolFull = ingest.ErrPoolFull

// ErrIngestorClosed rejects ingests after Ingestor.Close.
var ErrIngestorClosed = ingest.ErrClosed

// ErrIngestJournalDegraded rejects an ingest batch whose journal append
// exhausted its retry budget: durability cannot be promised, so the batch is
// refused and the ingestor serves read-only until an append succeeds again.
var ErrIngestJournalDegraded = ingest.ErrJournalDegraded

// IngestConfig tunes an Ingestor; every zero field gets a usable default
// (threshold 256, pool 8×threshold, compaction after 8 journal segments,
// persistence disabled).
type IngestConfig struct {
	// Threshold is the number of pooled posts needing a re-cluster that
	// triggers the background re-cluster.
	Threshold int
	// MaxPending bounds the accepted-but-unabsorbed pool; ingests beyond it
	// fail with ErrIngestPoolFull.
	MaxPending int
	// CompactAfter is the number of sealed journal segments that triggers a
	// compaction after the next successful re-cluster.
	CompactAfter int
	// DeltaDir is the delta-journal directory; empty disables persistence.
	DeltaDir string
	// JournalAttempts is the total number of tries one batch's journal
	// append gets before the ingestor goes read-only (default 3);
	// JournalBackoff is the first retry delay, doubling per retry with a
	// fixed cap (default 2ms).
	JournalAttempts int
	JournalBackoff  time.Duration
}

// NewIngestor wires a streaming ingest path onto a hot-swappable engine.
// The dataset and site must be the corpus and annotation site the currently
// served engine was built from (the engine's own configuration is reused),
// so that the determinism contract holds: after any sequence of ingests and
// re-clusters, the served engine is bitwise-identical to a from-scratch
// build over ds plus every ingested post in ingest order.
//
// Incoming posts are probed against hot's current engine; unmatched fringe
// image posts accumulate until the threshold, then a background re-cluster
// absorbs them and publishes the fresh engine via hot.Swap — in-flight
// requests finish on the generation they pinned, new requests see the new
// posts. Close the Ingestor before discarding it.
func NewIngestor(hot *HotEngine, ds *Dataset, site *AnnotationSite, cfg IngestConfig) (*Ingestor, error) {
	inc, err := pipeline.NewIncremental(ds, site, hot.Engine().build.Config)
	if err != nil {
		return nil, err
	}
	return ingest.New(inc, ingest.Config{
		Threshold:       cfg.Threshold,
		MaxPending:      cfg.MaxPending,
		CompactAfter:    cfg.CompactAfter,
		DeltaDir:        cfg.DeltaDir,
		JournalAttempts: cfg.JournalAttempts,
		JournalBackoff:  cfg.JournalBackoff,
		Match: func(ctx context.Context, h phash.Hash) (bool, error) {
			_, ok, err := hot.Match(ctx, h)
			return ok, err
		},
		Publish: func(b *pipeline.BuildResult) { hot.Swap(&Engine{build: b}) },
		Rebind:  func(ds *dataset.Dataset) { hot.Swap(&Engine{build: hot.Engine().build.Rebind(ds)}) },
	})
}

// LatestDeltaBase locates the newest compacted base snapshot in a delta
// directory — the artifact Ingestor compaction writes. ok is false when the
// directory holds none (or does not exist yet): boot from the original
// snapshot or corpus and Replay the journal from sequence 0.
func LatestDeltaBase(dir string) (path string, seq uint64, ok bool, err error) {
	return ingest.LatestBase(dir)
}

package pipeline

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/index"
)

// carveCorpus splits a generated corpus into a base dataset and the tail
// posts that play the live ingest traffic.
func carveCorpus(t *testing.T, live int) (*dataset.Dataset, *dataset.Dataset, []dataset.Post) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Posts) <= live {
		t.Fatalf("corpus too small: %d posts", len(ds.Posts))
	}
	cut := len(ds.Posts) - live
	return ds, ds.Prefix(cut), ds.Posts[cut:]
}

// snapshotBytes serialises a build for bitwise comparison.
func snapshotBytes(t *testing.T, b *BuildResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestIncrementalRebuildMatchesFromScratch is the determinism gate of the
// streaming ingest path: priming an Incremental from a base corpus and
// absorbing the remaining posts in staged batches — re-clustering after each
// batch, which exercises the cached-neighbourhood extension path — must end
// bitwise-identical (Save bytes) to a from-scratch Build over the union
// corpus, across worker counts and index strategies.
func TestIncrementalRebuildMatchesFromScratch(t *testing.T) {
	full, base, live := carveCorpus(t, 150)
	site, err := full.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	ctx := context.Background()

	for _, strategy := range index.Strategies() {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			cfg := DefaultConfig()
			cfg.Index = strategy
			cfg.Workers = workers

			ref, err := Build(ctx, full, site, cfg, nil)
			if err != nil {
				t.Fatalf("%s/w%d: from-scratch Build: %v", strategy, workers, err)
			}
			want := snapshotBytes(t, ref)

			baseRef, err := Build(ctx, base, site, cfg, nil)
			if err != nil {
				t.Fatalf("%s/w%d: base Build: %v", strategy, workers, err)
			}

			inc, err := NewIncremental(base, site, cfg)
			if err != nil {
				t.Fatalf("%s/w%d: NewIncremental: %v", strategy, workers, err)
			}
			// Prime: the first rebuild with zero added posts must equal the
			// base build exactly.
			primed, err := inc.RebuildCtx(ctx, nil)
			if err != nil {
				t.Fatalf("%s/w%d: prime RebuildCtx: %v", strategy, workers, err)
			}
			if !bytes.Equal(snapshotBytes(t, primed), snapshotBytes(t, baseRef)) {
				t.Fatalf("%s/w%d: primed rebuild diverges from base Build", strategy, workers)
			}

			// Absorb the live tail in three uneven batches, re-clustering
			// after each so resident neighbourhood lists get extended twice.
			cuts := []int{0, len(live) / 4, len(live) / 2, len(live)}
			var got *BuildResult
			for bi := 1; bi < len(cuts); bi++ {
				inc.AddPosts(live[cuts[bi-1]:cuts[bi]])
				got, err = inc.RebuildCtx(ctx, nil)
				if err != nil {
					t.Fatalf("%s/w%d: batch %d RebuildCtx: %v", strategy, workers, bi, err)
				}
			}
			if !bytes.Equal(snapshotBytes(t, got), want) {
				t.Errorf("%s/w%d: incremental result diverges from from-scratch build over the union corpus", strategy, workers)
			}
			if inc.Added() != len(live) {
				t.Errorf("%s/w%d: Added = %d, want %d", strategy, workers, inc.Added(), len(live))
			}

			// The union dataset must present the full post sequence, so
			// Result() and Associate see the ingested posts.
			u := inc.UnionDataset()
			if len(u.Posts) != len(full.Posts) {
				t.Errorf("%s/w%d: union has %d posts, want %d", strategy, workers, len(u.Posts), len(full.Posts))
			}
		}
	}
}

// TestIncrementalRebuildStages pins the stage accounting: a rebuild reports
// the recluster stage (not the batch cluster stage), and a rebuild with no
// new posts still assembles but scans zero points.
func TestIncrementalRebuildStages(t *testing.T) {
	_, base, live := carveCorpus(t, 60)
	site, err := base.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	inc, err := NewIncremental(base, site, DefaultConfig())
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	inc.AddPosts(live)
	b, err := inc.RebuildCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("RebuildCtx: %v", err)
	}
	stats := b.Stats()
	if _, ok := stats.Stage(StageRecluster); !ok {
		t.Errorf("rebuild stats missing %q stage: %+v", StageRecluster, stats.Stages)
	}
	if _, ok := stats.Stage(StageCluster); ok {
		t.Errorf("rebuild stats carry the batch %q stage", StageCluster)
	}
	if _, ok := stats.Stage(StageAnnotate); !ok {
		t.Errorf("rebuild stats missing %q stage", StageAnnotate)
	}

	// No new posts: the rebuild is a pure reassembly.
	b2, err := inc.RebuildCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("idle RebuildCtx: %v", err)
	}
	if !bytes.Equal(snapshotBytes(t, b2), snapshotBytes(t, b)) {
		t.Error("idle rebuild changed the engine state")
	}
}

// TestIncrementalRejectsBadInputs mirrors Build's input validation.
func TestIncrementalRejectsBadInputs(t *testing.T) {
	_, base, _ := carveCorpus(t, 10)
	site, err := base.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	if _, err := NewIncremental(nil, site, DefaultConfig()); err == nil {
		t.Error("nil dataset should be rejected")
	}
	if _, err := NewIncremental(base, nil, DefaultConfig()); err == nil {
		t.Error("nil site should be rejected")
	}
	bad := DefaultConfig()
	bad.AnnotationThreshold = -1
	if _, err := NewIncremental(base, site, bad); err == nil {
		t.Error("invalid config should be rejected")
	}
}

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/memes-pipeline/memes/internal/phash"
)

// sweepCorpus mirrors the corpora phash's TestNeighbourhoodsMatchesBrute
// uses: hashes drawn around a few templates with exact duplicates mixed in
// (crowded rows), and, when sparse is set, every other one replaced by a
// random hash (rows that stay short).
func sweepCorpus(rng *rand.Rand, n int, sparse bool) []phash.Hash {
	templates := []phash.Hash{phash.Hash(rng.Uint64()), phash.Hash(rng.Uint64()), phash.Hash(rng.Uint64())}
	out := make([]phash.Hash, n)
	for i := range out {
		h := templates[rng.Intn(len(templates))]
		for f := rng.Intn(6); f > 0; f-- {
			h ^= 1 << uint(rng.Intn(64))
		}
		if rng.Intn(4) == 0 && i > 0 {
			h = out[rng.Intn(i)] // exact duplicate
		}
		out[i] = h
	}
	if sparse {
		for i := 0; i < n; i += 2 {
			out[i] = phash.Hash(rng.Uint64())
		}
	}
	return out
}

// TestSweepMatchesDBSCANPerEps pins the shared-scan sweep against one
// DBSCAN call per eps — a direct scan at that eps, itself pinned to the
// historical implementation above — on both sides of phash's band-table
// cutover (1,024 points), with and without occurrence counts, for eps values
// given out of order and spanning the banded radii and the linear fallback.
func TestSweepMatchesDBSCANPerEps(t *testing.T) {
	epsValues := []int{8, 0, 16, 2, 10, 4, 15, 6}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{300, 1500} {
		for _, sparse := range []bool{false, true} {
			hashes := sweepCorpus(rng, n, sparse)
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 1 + rng.Intn(4)
			}
			for _, cs := range [][]int{nil, counts} {
				want := make([]Result, len(epsValues))
				for i, eps := range epsValues {
					var err error
					if want[i], err = DBSCAN(hashes, cs, DBSCANConfig{Eps: eps, MinPts: 5, Workers: 1}); err != nil {
						t.Fatal(err)
					}
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := SweepCtx(context.Background(), hashes, cs, epsValues, 5, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i, eps := range epsValues {
						assertSameClustering(t, got[i], want[i],
							fmt.Sprintf("n=%d sparse=%v counts=%v workers=%d eps=%d", n, sparse, cs != nil, workers, eps))
					}
				}
			}
		}
	}
}

func TestSweepEdges(t *testing.T) {
	ctx := context.Background()
	hashes := randomHashes(50, 3)
	if _, err := SweepCtx(ctx, hashes, nil, nil, 5, 1); err == nil {
		t.Error("no eps values should be rejected")
	}
	if _, err := SweepCtx(ctx, hashes, nil, []int{8, phash.MaxDistance + 1}, 5, 1); err == nil {
		t.Error("an out-of-range eps should be rejected")
	}
	if _, err := SweepCtx(ctx, hashes, []int{1}, []int{8}, 5, 1); err == nil {
		t.Error("misaligned counts should be rejected")
	}
	got, err := SweepCtx(ctx, nil, nil, []int{2, 8}, 5, 1)
	if err != nil || len(got) != 2 || len(got[0].Labels) != 0 {
		t.Errorf("empty input: %d results, err = %v", len(got), err)
	}
	// Repeated eps values share rows; both copies must still be complete.
	twice, err := SweepCtx(ctx, hashes, nil, []int{6, 6}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClustering(t, twice[1], twice[0], "repeated eps")
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := SweepCtx(cancelled, hashes, nil, []int{8}, 5, 1); err == nil {
		t.Error("a cancelled ctx should be reported")
	}
}

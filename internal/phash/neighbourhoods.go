package phash

import (
	"context"
	"slices"

	"github.com/memes-pipeline/memes/internal/parallel"
)

// joinCutover is the corpus size from which NeighbourhoodsCtx joins the band
// table with itself instead of popcounting every pair. Measured on meme-like
// corpora (families of near-duplicates plus noise; 2-vCPU VM, one worker):
// the join ties the pairwise kernel near 512 hashes, is 1.7–2.6× ahead at
// 1,024 and 4–10× at 4,096. A variable only so the equivalence tests can
// force either regime; both are exact, so the choice only moves cost.
var joinCutover = 1 << 10

// Neighbourhoods computes, for every input hash, the indexes of all hashes
// within the given Hamming radius of it. It is NeighbourhoodsCtx without
// cancellation.
func Neighbourhoods(hashes []Hash, radius, workers int) [][]int32 {
	neigh, _ := NeighbourhoodsCtx(context.Background(), hashes, radius, workers)
	return neigh
}

// NeighbourhoodsCtx computes, for every input hash, the indexes of all hashes
// within the given Hamming radius of it (always including itself, and any
// duplicates), each list in ascending index order. It is the all-points
// counterpart of MultiIndex.Radius — the paper's GPU pairwise comparison
// step as one batch primitive — and the phase-one engine of DBSCAN.
//
// The pairs within radius are found once each: corpora past joinCutover
// with a radius the bands can serve join the band table with itself
// (bandTable.selfJoin); everything else popcounts all n(n-1)/2 pairs. Either
// way the work runs on up to `workers` goroutines (<= 0 means GOMAXPROCS),
// and the rows are then built from the pairs in one arena and sorted, so the
// output is identical for every worker count.
//
// Every row is capacity-capped: appending to one copies it instead of
// overwriting the next, which callers that narrow or extend rows in place
// rely on.
//
// Cancellation stops work from being scheduled and returns (nil, ctx.Err());
// no goroutine outlives the call.
func NeighbourhoodsCtx(ctx context.Context, hashes []Hash, radius, workers int) ([][]int32, error) {
	n := len(hashes)
	if n == 0 || radius < 0 {
		return make([][]int32, n), ctx.Err()
	}
	w := min(parallel.Workers(workers), n)
	var pairs [][]pair
	var err error
	if n >= joinCutover && radius < linearRadius(len(bandWidths(n))) {
		pairs, err = newBandTable(hashes).selfJoin(ctx, radius, w)
	} else {
		pairs, err = pairwiseJoin(ctx, hashes, radius, w)
	}
	if err != nil {
		return nil, err
	}
	return rows(ctx, n, pairs, w)
}

// pairwiseJoin returns every pair (i, j), i < j, within radius by
// popcounting all of them, in contiguous chunks of i on up to w goroutines.
func pairwiseJoin(ctx context.Context, hashes []Hash, radius, w int) ([][]pair, error) {
	n := len(hashes)
	chunk := parallel.ChunkSize(n, w)
	return parallel.MapCtx(ctx, (n+chunk-1)/chunk, w, func(c int) []pair {
		var dst []pair
		for i := c * chunk; i < min(c*chunk+chunk, n); i++ {
			hi := hashes[i]
			for j, h := range hashes[i+1:] {
				if Distance(hi, h) <= radius {
					dst = append(dst, pair{int32(i), int32(i + 1 + j)})
				}
			}
		}
		return dst
	})
}

// rows builds the n neighbourhood lists from the pairs within radius: one
// count-then-fill arena holding, for each row, its own index and both ends'
// partners, then a sort of each row on up to w goroutines.
func rows(ctx context.Context, n int, pairs [][]pair, w int) ([][]int32, error) {
	start := make([]int, n+1)
	for i := range n {
		start[i+1] = 1 // the row's own index
	}
	for _, ps := range pairs {
		for _, p := range ps {
			start[p.i+1]++
			start[p.j+1]++
		}
	}
	for i := range n {
		start[i+1] += start[i]
	}
	arena := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for i := range n {
		arena[next[i]] = int32(i)
		next[i]++
	}
	for _, ps := range pairs {
		for _, p := range ps {
			arena[next[p.i]] = p.j
			next[p.i]++
			arena[next[p.j]] = p.i
			next[p.j]++
		}
	}
	neigh := make([][]int32, n)
	chunk := parallel.ChunkSize(n, w)
	if err := parallel.ForCtx(ctx, (n+chunk-1)/chunk, w, func(c int) {
		for i := c * chunk; i < min(c*chunk+chunk, n); i++ {
			row := arena[start[i]:start[i+1]:start[i+1]]
			slices.Sort(row)
			neigh[i] = row
		}
	}); err != nil {
		return nil, err
	}
	return neigh, nil
}

// CrossNeighbourhoodsCtx computes, for every probe hash, the indexes of all
// base hashes within the given Hamming radius of it (duplicates included,
// probes never matched against each other), each list in ascending base
// index order. It is the streaming companion of NeighbourhoodsCtx: an ingest
// batch probes the resident corpus without re-scanning resident pairs, so an
// incremental re-cluster pays O(len(base)·len(probes)) instead of the full
// O(n²). The scan is chunked over probes across up to `workers` goroutines
// (<= 0 means GOMAXPROCS); output is identical for every worker count.
//
// Cancellation stops chunks from being scheduled and returns
// (nil, ctx.Err()); no goroutine outlives the call.
func CrossNeighbourhoodsCtx(ctx context.Context, base, probes []Hash, radius, workers int) ([][]int32, error) {
	m := len(probes)
	out := make([][]int32, m)
	if m == 0 || len(base) == 0 || radius < 0 {
		return out, ctx.Err()
	}
	w := parallel.Workers(workers)
	if w > m {
		w = m
	}
	chunk := parallel.ChunkSize(m, w)
	numChunks := (m + chunk - 1) / chunk
	if err := parallel.ForCtx(ctx, numChunks, w, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		arena := make([]int32, 0, (hi-lo)*4)
		for i := lo; i < hi; i++ {
			at := len(arena)
			hq := probes[i]
			for j, h := range base {
				if Distance(hq, h) <= radius {
					arena = append(arena, int32(j))
				}
			}
			// Capacity-capped like NeighbourhoodsCtx's rows: they stay safe
			// to extend by callers merging cross and in-batch lists.
			out[i] = arena[at:len(arena):len(arena)]
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

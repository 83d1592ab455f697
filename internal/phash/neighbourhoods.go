package phash

import (
	"context"

	"github.com/memes-pipeline/memes/internal/parallel"
)

// probeCutover is the corpus size from which the band table beats the
// pairwise kernels: a probed row popcounts about n/16 entries at eps 8
// against n/2 for the symmetric kernel, but pays for its probe set, its
// row sort and its share of the table build, which small inputs do not
// amortise. Measured on a sparse corpus (2-vCPU VM, eps 8): probing wins
// from ~500 hashes at two workers and ~1,200 at one, and is 3.4x (one
// worker) to 7x (two) ahead at 23,629. The choice only moves cost, never
// results — both regimes are exact. A variable only so the equivalence
// tests can force either regime.
var probeCutover = 1 << 10

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
// The scan runs on up to `workers` goroutines (<= 0 means GOMAXPROCS); the
// output is identical for every worker count. Corpora past probeCutover
// with a radius the bands can serve probe one shared band table, a row at a
// time; everything else takes a pairwise kernel, which with one worker
// exploits symmetry and computes each pair once.
//
// Cancellation stops rows from being scheduled and returns (nil, ctx.Err());
// no goroutine outlives the call.
func NeighbourhoodsCtx(ctx context.Context, hashes []Hash, radius, workers int) ([][]int32, error) {
	n := len(hashes)
	neigh := make([][]int32, n)
	if n == 0 || radius < 0 {
		return neigh, ctx.Err()
	}
	w := min(parallel.Workers(workers), n)
	probing := n >= probeCutover && radius < mihLinearRadius

	if !probing && w <= 1 {
		// Symmetric serial kernel: each unordered pair is popcounted once
		// and contributes to both endpoints' lists. Row i's list receives
		// every j < i while those rows run, then i itself, then every
		// j > i in ascending order — ascending overall, matching the
		// chunked kernel bit for bit.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			neigh[i] = append(neigh[i], int32(i))
			hi := hashes[i]
			for j := i + 1; j < n; j++ {
				if Distance(hi, hashes[j]) <= radius {
					neigh[i] = append(neigh[i], int32(j))
					neigh[j] = append(neigh[j], int32(i))
				}
			}
		}
		return neigh, nil
	}

	// row appends row i's list to dst: a scan of all n columns, or a probe
	// of the band table.
	row := func(dst []int32, i int) []int32 {
		hq := hashes[i]
		for j, h := range hashes {
			if Distance(hq, h) <= radius {
				dst = append(dst, int32(j))
			}
		}
		return dst
	}
	if probing {
		t := newBandTable(hashes)
		row = func(dst []int32, i int) []int32 { return t.appendWithin(dst, hashes[i], radius) }
	}

	// Contiguous row chunks. Per-chunk arenas are sized once and reused
	// across the chunk's rows, with every row's list carved out as a
	// capacity-capped sub-slice, so allocations scale with chunks rather
	// than points.
	chunk := parallel.ChunkSize(n, w)
	numChunks := (n + chunk - 1) / chunk
	if err := parallel.ForCtx(ctx, numChunks, w, func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, n)
		arena := make([]int32, 0, (hi-lo)*8)
		for i := lo; i < hi; i++ {
			at := len(arena)
			arena = row(arena, i)
			// A mid-row growth leaves the row contiguous in the new
			// backing array (append copies the pending prefix with it);
			// earlier rows keep pointing into the retired arena.
			neigh[i] = arena[at:len(arena):len(arena)]
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
			// Capacity-capped like the kernel above: rows stay safe to
			// extend by callers merging cross and in-batch lists.
			out[i] = arena[at:len(arena):len(arena)]
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Package cluster provides the clustering machinery used by the pipeline:
// DBSCAN over perceptual-hash Hamming distance (Steps 2-3 of the paper's
// pipeline), cluster medoid computation (Step 5), and average-linkage
// agglomerative clustering used to build the dendrograms of Section 4.1.2.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// Noise is the label assigned to points that do not belong to any cluster.
const Noise = -1

// DBSCANConfig holds the parameters of the density-based clustering step.
// The paper uses Eps = 8 and MinPts = 5 (Appendix A).
type DBSCANConfig struct {
	// Eps is the maximum Hamming distance between two hashes for one to be
	// considered in the neighbourhood of the other.
	Eps int
	// MinPts is the minimum neighbourhood size (including the point itself)
	// for a point to be a core point.
	MinPts int
	// Workers bounds the parallel neighbourhood scan (phase one); zero means
	// GOMAXPROCS. The labels are identical for every worker count, because
	// the expansion phase that assigns them runs serially over the cached
	// neighbourhoods.
	Workers int
}

// DefaultDBSCANConfig returns the configuration used in the paper.
func DefaultDBSCANConfig() DBSCANConfig {
	return DBSCANConfig{Eps: 8, MinPts: 5}
}

// Validate reports whether the configuration is usable.
func (c DBSCANConfig) Validate() error {
	if c.Eps < 0 || c.Eps > phash.MaxDistance {
		return fmt.Errorf("cluster: eps %d out of range [0, %d]", c.Eps, phash.MaxDistance)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("cluster: minPts %d must be at least 1", c.MinPts)
	}
	if c.Workers < 0 {
		return fmt.Errorf("cluster: negative worker count %d", c.Workers)
	}
	return nil
}

// Result is the outcome of a DBSCAN run.
type Result struct {
	// Labels has one entry per input hash: the cluster index in
	// [0, NumClusters) or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
	// NoiseCount is the number of points labelled Noise.
	NoiseCount int
	// Neighbourhoods records the cost of the parallel neighbourhood scan
	// (phase one) — the CPU analogue of the paper's GPU pairwise engine. It
	// is the only Result field that varies between runs on identical inputs.
	Neighbourhoods NeighbourhoodStats
}

// NeighbourhoodStats is the timing record of DBSCAN's phase one: computing
// the eps-neighbourhood of every distinct hash against the multi-index.
type NeighbourhoodStats struct {
	// Duration is the wall time of the scan.
	Duration time.Duration
	// Points is the number of distinct hashes scanned.
	Points int
}

// PointsPerSec returns the scan throughput, or 0 for an instantaneous scan.
func (s NeighbourhoodStats) PointsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Points) / s.Duration.Seconds()
}

// NoiseFraction returns the fraction of input points labelled as noise.
func (r Result) NoiseFraction() float64 {
	if len(r.Labels) == 0 {
		return 0
	}
	return float64(r.NoiseCount) / float64(len(r.Labels))
}

// Members returns, for each cluster, the indexes of its member points,
// ordered by cluster label and then by index.
func (r Result) Members() [][]int {
	members := make([][]int, r.NumClusters)
	for i, lbl := range r.Labels {
		if lbl == Noise {
			continue
		}
		members[lbl] = append(members[lbl], i)
	}
	return members
}

// DBSCAN clusters the distinct perceptual hashes using density-based
// clustering with the Hamming distance. It is DBSCANCtx without
// cancellation.
func DBSCAN(hashes []phash.Hash, counts []int, cfg DBSCANConfig) (Result, error) {
	return DBSCANCtx(context.Background(), hashes, counts, cfg)
}

// DBSCANCtx clusters the distinct perceptual hashes using density-based
// clustering with the Hamming distance, honouring ctx cancellation during
// the parallel neighbourhood scan. The counts slice gives the number of
// occurrences of each hash (distinct hashes are the points, but density is
// measured in occurrences, mirroring the paper's treatment of duplicate
// images); pass nil to weight every hash equally.
//
// The run is split into two phases. Phase one computes the
// eps-neighbourhood (member indexes plus total occurrence weight) of every
// point in parallel over cfg.Workers against a multi-index built over the
// hashes — this is exactly the paper's GPU pairwise comparison step, spread
// across cores instead of CUDA blocks. Phase two runs the classic serial
// breadth-first expansion over the cached neighbourhoods. Because each
// neighbourhood is a pure function of the input and the expansion order
// never depends on scheduling, Labels are bitwise-identical for every
// worker count — and identical to what the historical single-threaded
// re-querying implementation produced (pinned by a property test and a fuzz
// target against that reference).
//
// Cancellation during phase one returns ctx.Err() with a zero Result; no
// goroutine outlives the call.
func DBSCANCtx(ctx context.Context, hashes []phash.Hash, counts []int, cfg DBSCANConfig) (Result, error) {
	results, err := SweepCtx(ctx, hashes, counts, []int{cfg.Eps}, cfg.MinPts, cfg.Workers)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// SweepCtx runs DBSCANCtx at every eps of epsValues and returns the Results
// in that order, each identical to a DBSCANCtx call at that eps, off a
// single neighbourhood scan: phase one runs once, at the largest eps, and
// every smaller eps filters the rows it left down by distance. Rows are in
// ascending index order and filtering keeps that order, so a filtered row
// equals the row a direct scan at the smaller eps returns, and the serial
// expansion over it assigns the same labels. Each Result's Neighbourhoods
// stats charge the shared scan plus that eps's own filtering pass.
func SweepCtx(ctx context.Context, hashes []phash.Hash, counts []int, epsValues []int, minPts, workers int) ([]Result, error) {
	if len(epsValues) == 0 {
		return nil, errors.New("cluster: no eps values supplied")
	}
	for _, eps := range epsValues {
		if err := (DBSCANConfig{Eps: eps, MinPts: minPts, Workers: workers}).Validate(); err != nil {
			return nil, err
		}
	}
	n := len(hashes)
	results := make([]Result, len(epsValues))
	for i := range results {
		results[i].Labels = make([]int, n)
	}
	if n == 0 {
		return results, nil
	}
	if counts != nil && len(counts) != n {
		return nil, fmt.Errorf("cluster: counts length %d does not match hashes length %d", len(counts), n)
	}
	// Widest first, so that every later eps narrows the rows in place.
	order := make([]int, len(epsValues))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return epsValues[order[a]] > epsValues[order[b]] })

	// Phase one: every point's eps-neighbourhood at the widest eps, computed
	// in parallel by the batch pairwise primitive.
	scanStart := now()
	radius := epsValues[order[0]]
	neigh, err := phash.NeighbourhoodsCtx(ctx, hashes, radius, workers)
	if err != nil {
		return nil, err
	}
	scan := since(scanStart)

	weights := make([]int, n)
	for _, at := range order {
		eps := epsValues[at]
		passStart := now()
		// Narrow each row to eps and total its occurrence weight.
		if err := parallel.ForCtx(ctx, n, workers, func(i int) {
			row := neigh[i]
			if eps < radius {
				kept := row[:0]
				for _, j := range row {
					if phash.Distance(hashes[i], hashes[j]) <= eps {
						kept = append(kept, j)
					}
				}
				row, neigh[i] = kept, kept
			}
			if counts == nil {
				weights[i] = len(row)
				return
			}
			total := 0
			for _, j := range row {
				total += counts[j]
			}
			weights[i] = total
		}); err != nil {
			return nil, err
		}
		radius = eps
		res := &results[at]
		res.Neighbourhoods = NeighbourhoodStats{Duration: scan + since(passStart), Points: n}

		// Phase two: deterministic serial expansion over the cached
		// neighbourhoods — the same breadth-first traversal, in the same
		// order, as the historical implementation that re-queried the index
		// per visit.
		expand(neigh, weights, minPts, res)
	}
	return results, nil
}

// expand is DBSCAN's phase two: the deterministic serial breadth-first
// expansion over cached eps-neighbourhoods, filling res.Labels (which must
// have len(neigh) entries), res.NumClusters and res.NoiseCount. It is shared
// by DBSCANCtx and Incremental.ReclusterCtx so the batch and streaming paths
// produce bitwise-identical labels by construction.
func expand(neigh [][]int32, weights []int, minPts int, res *Result) {
	const unvisited = -2
	labels := res.Labels
	for i := range labels {
		labels[i] = unvisited
	}
	var queue []int32
	clusterID := 0
	for i := 0; i < len(labels); i++ {
		if labels[i] != unvisited {
			continue
		}
		if weights[i] < minPts {
			labels[i] = Noise
			continue
		}
		// Start a new cluster and expand it breadth-first.
		labels[i] = clusterID
		queue = append(queue[:0], neigh[i]...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = clusterID // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = clusterID
			if weights[j] >= minPts {
				queue = append(queue, neigh[j]...)
			}
		}
		clusterID++
	}

	res.NumClusters = clusterID
	res.NoiseCount = 0
	for _, lbl := range labels {
		if lbl == Noise {
			res.NoiseCount++
		}
	}
}

// Medoid returns the index (into members) of the medoid of a cluster: the
// member with the minimum sum of squared Hamming distances to all other
// members, which is the definition used for cluster annotation in Step 5.
// Ties are broken by the lowest index for determinism. The second return
// value is false when members is empty.
func Medoid(hashes []phash.Hash, members []int) (int, bool) {
	return MedoidParallel(hashes, members, 1)
}

// MedoidParallel is Medoid with the outer candidate loop spread across a
// worker pool (workers <= 0 means GOMAXPROCS). It is MedoidParallelCtx
// without cancellation.
func MedoidParallel(hashes []phash.Hash, members []int, workers int) (int, bool) {
	idx, ok, _ := MedoidParallelCtx(context.Background(), hashes, members, workers)
	return idx, ok
}

// MedoidParallelCtx is Medoid with the outer candidate loop spread across a
// worker pool (workers <= 0 means GOMAXPROCS), honouring ctx cancellation.
// The member hashes are first gathered into a contiguous popcount-friendly
// block so the O(k²) inner loop runs over sequential memory with a single
// XOR+popcount per pair instead of chasing the cluster's member indirection.
// The result is identical to Medoid for every worker count.
func MedoidParallelCtx(ctx context.Context, hashes []phash.Hash, members []int, workers int) (int, bool, error) {
	if len(members) == 0 {
		return 0, false, ctx.Err()
	}
	if len(members) == 1 {
		return members[0], true, ctx.Err()
	}
	// Contiguous layout: hs[p] is the hash of members[p], so the inner loop
	// runs a sequential XOR+popcount scan instead of chasing member indexes.
	hs := make([]phash.Hash, len(members))
	for p, i := range members {
		hs[p] = hashes[i]
	}
	costs := make([]int64, len(members))
	if err := parallel.ForCtx(ctx, len(members), workers, func(p int) {
		h := hs[p]
		var cost int64
		for _, other := range hs {
			d := int64(phash.Distance(h, other))
			cost += d * d
		}
		costs[p] = cost
	}); err != nil {
		return 0, false, err
	}
	// The reduction runs serially over the precomputed costs, so the
	// lowest-index tie-break matches the sequential implementation exactly.
	bestIdx := members[0]
	bestCost := int64(1) << 62
	for p, i := range members {
		if costs[p] < bestCost || (costs[p] == bestCost && i < bestIdx) {
			bestCost = costs[p]
			bestIdx = i
		}
	}
	return bestIdx, true, nil
}

// Cluster is a materialised cluster: its label, member indexes, medoid index
// and medoid hash. Produced by MaterializeParallel.
type Cluster struct {
	Label      int
	Members    []int
	Medoid     int
	MedoidHash phash.Hash
	// Size is the total occurrence weight of the cluster (sum of counts of
	// its member hashes).
	Size int
}

// MaterializeParallel converts a DBSCAN result into a slice of Cluster
// values with medoids computed, ordered by label, spreading the medoid
// computation across a worker pool (workers <= 0 means GOMAXPROCS). counts
// may be nil (unit weights). It is MaterializeParallelCtx without
// cancellation.
func MaterializeParallel(hashes []phash.Hash, counts []int, res Result, workers int) []Cluster {
	out, _ := MaterializeParallelCtx(context.Background(), hashes, counts, res, workers)
	return out
}

// MaterializeParallelCtx is MaterializeParallel honouring ctx cancellation.
// Clusters are materialised concurrently and each cluster's medoid search
// is itself parallelised for large clusters, but the returned slice is
// ordered by label and identical for every worker count. On cancellation it
// returns (nil, ctx.Err()); no goroutine outlives the call.
func MaterializeParallelCtx(ctx context.Context, hashes []phash.Hash, counts []int, res Result, workers int) ([]Cluster, error) {
	members := res.Members()
	// Split the worker budget between the two nesting levels so the total
	// number of CPU-bound goroutines stays ~workers: the cluster-level
	// fan-out uses up to `concurrent` workers, and each of those hands the
	// leftover budget to the O(k²) medoid scan of large clusters. With many
	// clusters the outer level saturates and medoids run serially; with a
	// few huge clusters the budget flows inward instead.
	labels := make([]int, 0, len(members))
	for label, m := range members {
		if len(m) > 0 {
			labels = append(labels, label)
		}
	}
	resolved := parallel.Workers(workers)
	concurrent := resolved
	if concurrent > len(labels) {
		concurrent = len(labels)
	}
	medoidBudget := 1
	if concurrent > 0 {
		medoidBudget = resolved / concurrent
		if medoidBudget < 1 {
			medoidBudget = 1
		}
	}
	return parallel.MapCtx(ctx, len(labels), resolved, func(li int) Cluster {
		label := labels[li]
		// Members() returns each slice already in ascending index order.
		m := members[label]
		medoidWorkers := 1
		if len(m) >= 256 {
			medoidWorkers = medoidBudget
		}
		medoid, _ := MedoidParallel(hashes, m, medoidWorkers)
		size := 0
		for _, i := range m {
			if counts == nil {
				size++
			} else {
				size += counts[i]
			}
		}
		return Cluster{
			Label:      label,
			Members:    m,
			Medoid:     medoid,
			MedoidHash: hashes[medoid],
			Size:       size,
		}
	})
}

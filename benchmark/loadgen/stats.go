//go:build linux

package loadgen

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is set by a handful of requests and does
// not repeat from run to run.
const MinBeyond = 10

// Percentile is the nearest-rank p-quantile (0 < p <= 1) of an ascending
// sample set: the smallest sample with at least p of the set at or below
// it. Zero for an empty set.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the zero-based nearest-rank index of the p-quantile among n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps an exact product such as 0.99*1000 = 990 from being
	// pushed to 991 by its binary representation.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Beyond is the number of samples strictly above the p-quantile's rank.
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// Resolved reports whether the p-quantile of n samples has at least
// MinBeyond samples beyond it.
func Resolved(n int, p float64) bool { return Beyond(n, p) >= MinBeyond }

// Slices cuts the window [from, to) into n equal slices by completion time
// and returns each slice's latency samples, ascending. A benchmark on a
// shared machine is disturbed for seconds at a time; a statistic taken per
// slice and reported as the median slice is unmoved by a disturbance shorter
// than half the window, where the same statistic over the whole window
// would carry it.
func Slices(results []StreamResult, from, to int64, n int) [][]int64 {
	out := make([][]int64, n)
	width := float64(to-from) / float64(n)
	for r := range results {
		for i, end := range results[r].End {
			k := int(float64(end-from) / width)
			if k < 0 || k >= n {
				continue
			}
			out[k] = append(out[k], results[r].Latency[i])
		}
	}
	for k := range out {
		sort.Slice(out[k], func(i, j int) bool { return out[k][i] < out[k][j] })
	}
	return out
}

// Median is the middle value of xs (the mean of the middle two for an even
// count); zero for none.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if mid := len(s) / 2; len(s)%2 == 1 {
		return s[mid]
	} else {
		return (s[mid-1] + s[mid]) / 2
	}
}

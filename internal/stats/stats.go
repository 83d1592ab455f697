// Package stats provides the statistical primitives used throughout the
// analysis: empirical CDFs, two-sample Kolmogorov-Smirnov tests (used in the
// influence comparisons of Figures 13-16), Fleiss' kappa (Appendix B), and
// descriptive statistics.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a computation requires at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than one
// observation).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns the empirical CDF evaluated at x: the fraction of observations
// less than or equal to x.
func (c *CDF) At(x float64) float64 {
	// Index of the first element > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Len returns the number of observations.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-th quantile of the underlying sample.
func (c *CDF) Quantile(q float64) float64 { return Quantile(c.sorted, q) }

// Points returns (x, F(x)) pairs suitable for plotting: one point per
// distinct observation.
func (c *CDF) Points() ([]float64, []float64) {
	var xs, ys []float64
	n := float64(len(c.sorted))
	for i := 0; i < len(c.sorted); i++ {
		if i+1 < len(c.sorted) && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		xs = append(xs, c.sorted[i])
		ys = append(ys, float64(i+1)/n)
	}
	return xs, ys
}

// KSResult is the result of a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// Statistic is the maximum absolute difference between the two empirical
	// CDFs.
	Statistic float64
	// PValue is the asymptotic two-sided p-value.
	PValue float64
	// Significant reports whether PValue < 0.01, the threshold used in the
	// paper's influence comparisons.
	Significant bool
}

// KSTestSorted performs a two-sample Kolmogorov-Smirnov test comparing
// samples as and bs, both sorted in ascending order, using the asymptotic
// Kolmogorov distribution for the p-value. Callers that own their samples
// sort them in place.
func KSTestSorted(as, bs []float64) (KSResult, error) {
	if len(as) == 0 || len(bs) == 0 {
		return KSResult{}, ErrEmpty
	}
	d := 0.0
	i, j := 0, 0
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		va, vb := as[i], bs[j]
		if va <= vb {
			i++
		}
		if vb <= va {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	en := math.Sqrt(na * nb / (na + nb))
	p := kolmogorovQ((en + 0.12 + 0.11/en) * d)
	return KSResult{Statistic: d, PValue: p, Significant: p < 0.01}, nil
}

// kolmogorovQ computes the complementary Kolmogorov distribution
// Q(lambda) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2).
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// FleissKappa computes Fleiss' kappa for inter-rater agreement. ratings is a
// matrix with one row per subject and one column per category; entry (i, c)
// is the number of raters who assigned subject i to category c. Every row
// must sum to the same number of raters (>= 2).
func FleissKappa(ratings [][]int) (float64, error) {
	if len(ratings) == 0 {
		return 0, ErrEmpty
	}
	nCat := len(ratings[0])
	if nCat == 0 {
		return 0, errors.New("stats: fleiss kappa requires at least one category")
	}
	raters := 0
	for _, c := range ratings[0] {
		raters += c
	}
	if raters < 2 {
		return 0, errors.New("stats: fleiss kappa requires at least two raters")
	}
	nSub := float64(len(ratings))

	// Category proportions.
	pj := make([]float64, nCat)
	for _, row := range ratings {
		if len(row) != nCat {
			return 0, errors.New("stats: ragged ratings matrix")
		}
		sum := 0
		for c, v := range row {
			if v < 0 {
				return 0, errors.New("stats: negative rating count")
			}
			pj[c] += float64(v)
			sum += v
		}
		if sum != raters {
			return 0, fmt.Errorf("stats: inconsistent rater count: row has %d, expected %d", sum, raters)
		}
	}
	total := nSub * float64(raters)
	for c := range pj {
		pj[c] /= total
	}

	// Per-subject agreement.
	pBar := 0.0
	for _, row := range ratings {
		pi := 0.0
		for _, v := range row {
			pi += float64(v * (v - 1))
		}
		pi /= float64(raters * (raters - 1))
		pBar += pi
	}
	pBar /= nSub

	peBar := 0.0
	for _, p := range pj {
		peBar += p * p
	}
	if 1-peBar == 0 {
		// Degenerate case: all ratings in one category; agreement is perfect.
		return 1, nil
	}
	return (pBar - peBar) / (1 - peBar), nil
}

// Jaccard returns the Jaccard index |A ∩ B| / |A ∪ B| between two sets of
// strings. Two empty sets have similarity 1 by convention (they are
// identical); one empty and one non-empty set have similarity 0.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	setA := make(map[string]struct{}, len(a))
	for _, s := range a {
		setA[s] = struct{}{}
	}
	setB := make(map[string]struct{}, len(b))
	for _, s := range b {
		setB[s] = struct{}{}
	}
	inter := 0
	for s := range setA {
		if _, ok := setB[s]; ok {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Histogram bins the sample xs into nBins equal-width bins spanning
// [min, max] and returns the bin edges (nBins+1 values) and counts.
func Histogram(xs []float64, nBins int) (edges []float64, counts []int, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	if nBins < 1 {
		return nil, nil, errors.New("stats: histogram requires at least one bin")
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min == max {
		max = min + 1
	}
	width := (max - min) / float64(nBins)
	edges = make([]float64, nBins+1)
	for i := range edges {
		edges[i] = min + float64(i)*width
	}
	counts = make([]int, nBins)
	for _, x := range xs {
		bin := int((x - min) / width)
		if bin >= nBins {
			bin = nBins - 1
		}
		if bin < 0 {
			bin = 0
		}
		counts[bin]++
	}
	return edges, counts, nil
}

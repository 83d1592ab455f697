package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMedianVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Fatalf("median = %v", Median(xs))
	}
	if !almostEqual(Variance(xs), 2, 1e-12) {
		t.Fatalf("variance = %v", Variance(xs))
	}
	if !almostEqual(StdDev(xs), math.Sqrt(2), 1e-12) {
		t.Fatalf("stddev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice statistics should be zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Quantile(xs, 0) != 10 {
		t.Fatalf("q0 = %v", Quantile(xs, 0))
	}
	if Quantile(xs, 1) != 40 {
		t.Fatalf("q1 = %v", Quantile(xs, 1))
	}
	if !almostEqual(Quantile(xs, 0.5), 25, 1e-12) {
		t.Fatalf("q0.5 = %v", Quantile(xs, 0.5))
	}
	// Clamping out-of-range q.
	if Quantile(xs, -5) != 10 || Quantile(xs, 7) != 40 {
		t.Fatal("quantile should clamp q to [0,1]")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of empty slice should be 0")
	}
}

func TestDescribe(t *testing.T) {
	if _, err := Describe(nil); err == nil {
		t.Fatal("expected error for empty sample")
	}
	s, err := Describe([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("summary string should not be empty")
	}
}

func TestCDF(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("expected error for empty CDF")
	}
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	xs, ys := c.Points()
	if len(xs) != 3 || len(ys) != 3 {
		t.Fatalf("points should collapse duplicates: %v %v", xs, ys)
	}
	if ys[len(ys)-1] != 1 {
		t.Fatal("last CDF point must be 1")
	}
	if c.Quantile(0.5) != 2 {
		t.Fatalf("CDF quantile = %v", c.Quantile(0.5))
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -40.0; x <= 40; x += 1.3 {
			v := c.At(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ksTest runs KSTestSorted on sorted copies of a and b.
func ksTest(a, b []float64) (KSResult, error) {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	return KSTestSorted(as, bs)
}

func TestKSTestIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	res, err := ksTest(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 {
		t.Fatalf("KS statistic for identical samples should be 0, got %v", res.Statistic)
	}
	if res.Significant {
		t.Fatal("identical samples should not be significantly different")
	}
}

func TestKSTestDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 3 // strongly shifted
	}
	res, err := ksTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Fatalf("shifted distributions should be significant, p=%v", res.PValue)
	}
	if res.Statistic < 0.5 {
		t.Fatalf("expected large KS statistic, got %v", res.Statistic)
	}
}

// TestKSTestSortedKernel: the merge-walk kernel's statistic is the largest
// gap between the two empirical CDFs over every sample point, ties
// included, and does not depend on the order of its arguments.
func TestKSTestSortedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 200)
	b := make([]float64, 150)
	for i := range a {
		a[i] = math.Round(rng.NormFloat64()*10) / 10
	}
	for i := range b {
		b[i] = math.Round((rng.NormFloat64()+0.3)*10) / 10
	}
	sort.Float64s(a)
	sort.Float64s(b)
	got, err := KSTestSorted(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewCDF(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCDF(b)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, x := range append(append([]float64(nil), a...), b...) {
		want = math.Max(want, math.Abs(ca.At(x)-cb.At(x)))
	}
	if math.Abs(got.Statistic-want) > 1e-12 {
		t.Fatalf("KS statistic = %v, largest CDF gap = %v", got.Statistic, want)
	}
	if rev, err := KSTestSorted(b, a); err != nil || rev != got {
		t.Fatalf("KSTestSorted(b, a) = %+v, %v; want %+v", rev, err, got)
	}
	if _, err := KSTestSorted(nil, b); err != ErrEmpty {
		t.Fatalf("empty sample: err = %v, want ErrEmpty", err)
	}
}

func TestKSTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	res, err := ksTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Fatalf("samples from the same distribution flagged significant, p=%v", res.PValue)
	}
}

func TestKSTestEmpty(t *testing.T) {
	if _, err := ksTest(nil, []float64{1}); err == nil {
		t.Fatal("expected error for empty sample")
	}
	if _, err := ksTest([]float64{1}, nil); err == nil {
		t.Fatal("expected error for empty sample")
	}
}

func TestKolmogorovQBounds(t *testing.T) {
	if kolmogorovQ(0) != 1 || kolmogorovQ(-1) != 1 {
		t.Fatal("Q at non-positive lambda should be 1")
	}
	if q := kolmogorovQ(10); q > 1e-10 {
		t.Fatalf("Q at large lambda should vanish, got %v", q)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		q := kolmogorovQ(l)
		if q > prev+1e-12 {
			t.Fatalf("Q not monotone at lambda=%v", l)
		}
		prev = q
	}
}

func TestFleissKappaPerfectAgreement(t *testing.T) {
	// 5 subjects, 3 raters, all raters agree on category 0 or 1.
	ratings := [][]int{
		{3, 0}, {3, 0}, {0, 3}, {0, 3}, {3, 0},
	}
	k, err := FleissKappa(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(k, 1, 1e-12) {
		t.Fatalf("perfect agreement kappa = %v, want 1", k)
	}
}

func TestFleissKappaKnownValue(t *testing.T) {
	// The canonical example from Fleiss (1971) / Wikipedia: 10 subjects,
	// 14 raters, 5 categories; kappa = 0.210.
	ratings := [][]int{
		{0, 0, 0, 0, 14},
		{0, 2, 6, 4, 2},
		{0, 0, 3, 5, 6},
		{0, 3, 9, 2, 0},
		{2, 2, 8, 1, 1},
		{7, 7, 0, 0, 0},
		{3, 2, 6, 3, 0},
		{2, 5, 3, 2, 2},
		{6, 5, 2, 1, 0},
		{0, 2, 2, 3, 7},
	}
	k, err := FleissKappa(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(k, 0.210, 0.005) {
		t.Fatalf("kappa = %v, want ~0.210", k)
	}
}

func TestFleissKappaErrors(t *testing.T) {
	if _, err := FleissKappa(nil); err == nil {
		t.Fatal("expected error for empty matrix")
	}
	if _, err := FleissKappa([][]int{{}}); err == nil {
		t.Fatal("expected error for zero categories")
	}
	if _, err := FleissKappa([][]int{{1, 0}}); err == nil {
		t.Fatal("expected error for single rater")
	}
	if _, err := FleissKappa([][]int{{2, 1}, {1, 1}}); err == nil {
		t.Fatal("expected error for inconsistent rater counts")
	}
	if _, err := FleissKappa([][]int{{2, 1}, {4, -1}}); err == nil {
		t.Fatal("expected error for negative counts")
	}
	if _, err := FleissKappa([][]int{{2, 1}, {1, 2, 0}}); err == nil {
		t.Fatal("expected error for ragged matrix")
	}
}

func TestFleissKappaDegenerateSingleCategory(t *testing.T) {
	ratings := [][]int{{3}, {3}, {3}}
	k, err := FleissKappa(ratings)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("single-category kappa = %v, want 1", k)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"x"}, nil, 0},
		{nil, []string{"x"}, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3.0},
		{[]string{"a"}, []string{"b"}, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 1}, // duplicates ignored
	}
	for _, tc := range cases {
		if got := Jaccard(tc.a, tc.b); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b []string) bool {
		v := Jaccard(a, b)
		if v < 0 || v > 1 {
			return false
		}
		return almostEqual(v, Jaccard(b, a), 1e-12) // symmetry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	if _, _, err := Histogram(nil, 5); err == nil {
		t.Fatal("expected error for empty sample")
	}
	if _, _, err := Histogram([]float64{1}, 0); err == nil {
		t.Fatal("expected error for zero bins")
	}
	edges, counts, err := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 6 || len(counts) != 5 {
		t.Fatalf("unexpected bin shapes: %v %v", edges, counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram lost observations: %d", total)
	}
	// Constant sample should not panic (degenerate width handling).
	_, counts, err = Histogram([]float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatal("constant-sample histogram lost observations")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := PearsonCorrelation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = PearsonCorrelation(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %v", r)
	}
	if _, err := PearsonCorrelation(xs, xs[:3]); err == nil {
		t.Fatal("expected error for unequal lengths")
	}
	if _, err := PearsonCorrelation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("expected error for zero-variance sample")
	}
}

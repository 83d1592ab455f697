package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/memes-pipeline/memes/internal/phash"
)

// TestWeightsValidate: both weight sets of Eq. 1 are non-negative and sum
// to 1.
func TestWeightsValidate(t *testing.T) {
	for _, w := range []Weights{FullModeWeights(), PartialModeWeights()} {
		for _, v := range []float64{w.Perceptual, w.Meme, w.People, w.Culture} {
			if v < 0 {
				t.Errorf("weights %+v hold a negative weight", w)
			}
		}
		if sum := w.Perceptual + w.Meme + w.People + w.Culture; !almost(sum, 1, 1e-9) {
			t.Errorf("weights %+v sum to %v, want 1", w, sum)
		}
	}
}

// TestNewOptions: New takes no options; its metric applies the paper's
// smoother and full-mode weights. Two annotated clusters with the same
// entries and medoids 8 bits apart differ only in the perceptual term.
func TestNewOptions(t *testing.T) {
	a := ClusterFeatures{MedoidHash: 0x1234, Memes: []string{"pepe"}, People: []string{"x"},
		Cultures: []string{"y"}, Annotated: true}
	b := a
	b.MedoidHash ^= 0xFF
	want := 0.4 * (1 - PerceptualSimilarity(8, DefaultTau))
	if d := New().Distance(a, b); !almost(d, want, 1e-12) {
		t.Fatalf("distance = %v, want %v", d, want)
	}
}

func TestPerceptualSimilarityAnchors(t *testing.T) {
	// The paper's anchor points for Figure 3.
	if got := PerceptualSimilarity(0, 1); !almost(got, 1, 1e-9) {
		t.Errorf("tau=1, d=0: got %v, want 1", got)
	}
	if got := PerceptualSimilarity(1, 1); math.Abs(got-0.37) > 0.05 {
		t.Errorf("tau=1, d=1: got %v, want ~0.4", got)
	}
	if got := PerceptualSimilarity(0, 64); !almost(got, 1, 1e-9) {
		t.Errorf("tau=64, d=0: got %v, want 1", got)
	}
	if got := PerceptualSimilarity(1, 64); math.Abs(got-0.98) > 0.01 {
		t.Errorf("tau=64, d=1: got %v, want ~0.98", got)
	}
	if got := PerceptualSimilarity(64, 25); !almost(got, 0, 1e-9) {
		t.Errorf("d=max: got %v, want 0", got)
	}
	// tau=25 keeps similarity high through d=8 (the clustering threshold).
	if got := PerceptualSimilarity(8, 25); got < 0.65 {
		t.Errorf("tau=25, d=8: got %v, want comfortably high", got)
	}
	// ... and drops well below that by d=32.
	if hi, lo := PerceptualSimilarity(8, 25), PerceptualSimilarity(32, 25); lo > hi/2 {
		t.Errorf("tau=25 should decay fast after d=8: r(8)=%v r(32)=%v", hi, lo)
	}
}

func TestPerceptualSimilarityMonotoneDecreasing(t *testing.T) {
	for _, tau := range []float64{1, 25, 64} {
		prev := math.Inf(1)
		for d := 0; d <= 64; d++ {
			v := PerceptualSimilarity(d, tau)
			if v < 0 || v > 1 {
				t.Fatalf("tau=%v d=%d: similarity %v out of range", tau, d, v)
			}
			if v > prev+1e-12 {
				t.Fatalf("tau=%v: similarity not monotone at d=%d", tau, d)
			}
			prev = v
		}
	}
}

func TestPerceptualSimilarityClamping(t *testing.T) {
	if got := PerceptualSimilarity(-5, 25); !almost(got, 1, 1e-9) {
		t.Errorf("negative distance should clamp to 0: %v", got)
	}
	if got := PerceptualSimilarity(100, 25); !almost(got, 0, 1e-9) {
		t.Errorf("over-max distance should clamp to max: %v", got)
	}
	// Non-positive tau falls back to the default rather than dividing by zero.
	if got := PerceptualSimilarity(8, 0); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("tau=0 should not produce NaN/Inf: %v", got)
	}
}

func TestDistanceIdenticalAnnotatedClusters(t *testing.T) {
	m := New()
	c := ClusterFeatures{
		MedoidHash: 0xABCDEF,
		Memes:      []string{"pepe-the-frog"},
		Cultures:   []string{"alt-right"},
		People:     []string{"donald-trump"},
		Annotated:  true,
	}
	if d := m.Distance(c, c); !almost(d, 0, 1e-9) {
		t.Fatalf("distance of a cluster to itself = %v, want 0", d)
	}
}

func TestDistanceFullModeBounds(t *testing.T) {
	// Same meme + perceptually identical medoids but different people and
	// culture: distance must be at most 0.2 (paper Section 2.3).
	m := New()
	a := ClusterFeatures{MedoidHash: 0x1234, Memes: []string{"smug-frog"},
		People: []string{"donald-trump"}, Cultures: []string{"alt-right"}, Annotated: true}
	b := ClusterFeatures{MedoidHash: 0x1234, Memes: []string{"smug-frog"},
		People: []string{"hillary-clinton"}, Cultures: []string{"feminism"}, Annotated: true}
	if d := m.Distance(a, b); d > 0.2+1e-9 {
		t.Fatalf("same meme + same medoid should give distance <= 0.2, got %v", d)
	}
	// Different meme names but identical medoids: perceptual weight alone
	// keeps the clusters within 0.6.
	c := ClusterFeatures{MedoidHash: 0x1234, Memes: []string{"happy-merchant"}, Annotated: true}
	if d := m.Distance(a, c); d > 0.6+1e-9 {
		t.Fatalf("identical medoids should cap distance at 0.6, got %v", d)
	}
}

func TestDistancePartialMode(t *testing.T) {
	m := New()
	annotated := ClusterFeatures{MedoidHash: 0xFFFF, Memes: []string{"x"}, Annotated: true}
	plain := ClusterFeatures{MedoidHash: 0xFFFF}
	// In partial mode with identical medoids the distance is exactly 0
	// regardless of annotations.
	if d := m.Distance(annotated, plain); !almost(d, 0, 1e-9) {
		t.Fatalf("partial-mode distance for identical medoids = %v, want 0", d)
	}
	// And with maximally distant medoids it is 1.
	far := ClusterFeatures{MedoidHash: ^phash.Hash(0xFFFF)}
	d := m.Distance(plain, far)
	if d < 0.9 {
		t.Fatalf("far medoids in partial mode should give distance near 1, got %v", d)
	}
}

func TestDistanceSymmetricAndBounded(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b", "c", "d", "e"}
	randFeatures := func() ClusterFeatures {
		pick := func() []string {
			var out []string
			for _, n := range names {
				if rng.Float64() < 0.4 {
					out = append(out, n)
				}
			}
			return out
		}
		return ClusterFeatures{
			MedoidHash: phash.Hash(rng.Uint64()),
			Memes:      pick(),
			Cultures:   pick(),
			People:     pick(),
			Annotated:  rng.Float64() < 0.7,
		}
	}
	for i := 0; i < 200; i++ {
		a, b := randFeatures(), randFeatures()
		d1 := m.Distance(a, b)
		d2 := m.Distance(b, a)
		if !almost(d1, d2, 1e-12) {
			t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("distance out of bounds: %v", d1)
		}
	}
}

func TestDistanceSameImageDifferentMemes(t *testing.T) {
	// Paper: the metric assigns small distances when two clusters use the
	// same image for different memes (perceptual weight dominates).
	m := New()
	a := ClusterFeatures{MedoidHash: 0xCAFE, Memes: []string{"meme-a"}, Annotated: true}
	b := ClusterFeatures{MedoidHash: 0xCAFE, Memes: []string{"meme-b"}, Annotated: true}
	if d := m.Distance(a, b); d > 0.61 {
		t.Fatalf("same-image different-meme distance %v should stay moderate", d)
	}
}

func TestMatrixProperties(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(11))
	clusters := make([]ClusterFeatures, 8)
	for i := range clusters {
		clusters[i] = ClusterFeatures{MedoidHash: phash.Hash(rng.Uint64()), Annotated: i%2 == 0,
			Memes: []string{string(rune('a' + i%3))}}
	}
	mat := m.Matrix(clusters)
	if len(mat) != len(clusters) {
		t.Fatalf("matrix has %d rows", len(mat))
	}
	for i := range mat {
		if mat[i][i] != 0 {
			t.Fatalf("diagonal entry (%d,%d) = %v", i, i, mat[i][i])
		}
		for j := range mat[i] {
			if mat[i][j] != mat[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestTauControlsDecaySpeed(t *testing.T) {
	// Smaller tau decays faster at every interior distance.
	for d := 1; d < 64; d++ {
		fast := PerceptualSimilarity(d, 1)
		slow := PerceptualSimilarity(d, 64)
		if fast > slow {
			t.Fatalf("tau=1 should decay faster than tau=64 at d=%d: %v vs %v", d, fast, slow)
		}
	}
}

func TestDistanceQuickProperties(t *testing.T) {
	m := New()
	f := func(h1, h2 uint64, annotated1, annotated2 bool) bool {
		a := ClusterFeatures{MedoidHash: phash.Hash(h1), Annotated: annotated1, Memes: []string{"m"}}
		b := ClusterFeatures{MedoidHash: phash.Hash(h2), Annotated: annotated2, Memes: []string{"m"}}
		d := m.Distance(a, b)
		return d >= 0 && d <= 1 && almost(d, m.Distance(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

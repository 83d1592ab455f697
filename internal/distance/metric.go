// Package distance implements the paper's custom inter-cluster distance
// metric (Section 2.3): a weighted combination of a perceptual similarity
// derived from the Hamming distance between cluster medoids (Eq. 2) and
// Jaccard similarities over the clusters' Know Your Meme annotations for the
// meme, culture, and people categories (Eq. 1).
package distance

import (
	"math"

	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/stats"
)

// DefaultTau is the smoother used by the paper for the perceptual
// exponential decay: rperceptual stays high up to d=8 and decays quickly
// afterwards.
const DefaultTau = 25.0

// Weights holds the relevance of each feature in Eq. 1. The weights are
// non-negative and sum to 1.
type Weights struct {
	Perceptual float64
	Meme       float64
	People     float64
	Culture    float64
}

// FullModeWeights are the weights used when both clusters are annotated
// (wperceptual=0.4, wmeme=0.4, wpeople=0.1, wculture=0.1).
func FullModeWeights() Weights {
	return Weights{Perceptual: 0.4, Meme: 0.4, People: 0.1, Culture: 0.1}
}

// PartialModeWeights are the weights used when at least one cluster lacks
// annotations: the metric relies entirely on the perceptual feature.
func PartialModeWeights() Weights {
	return Weights{Perceptual: 1}
}

// ClusterFeatures is the per-cluster feature set consumed by the metric:
// the cluster medoid's perceptual hash and the names of the KYM entries of
// each category matched during annotation (Step 5). Annotated reports
// whether the cluster received any annotation; it selects full vs partial
// mode.
type ClusterFeatures struct {
	MedoidHash phash.Hash
	Memes      []string
	Cultures   []string
	People     []string
	Annotated  bool
}

// Metric computes inter-cluster distances with the paper's constants:
// smoother DefaultTau, FullModeWeights when both clusters are annotated and
// PartialModeWeights otherwise.
type Metric struct{}

// New returns the paper's metric.
func New() *Metric { return &Metric{} }

// PerceptualSimilarity implements Eq. 2: an exponential decay over the
// Hamming score d with smoother tau, normalised so that d=0 gives 1 and
// d=max gives 0... more precisely r(d) = 1 - d / (tau * e^{max/tau}) in the
// paper's notation with the decay applied through the exponent; we use the
// equivalent monotone form r(d) = (e^{(max-d)/tau} - 1) / (e^{max/tau} - 1),
// which satisfies the paper's stated anchor points (r(0)=1, r(max)=0, high
// values up to d≈8 for tau=25, near-linear decay for tau=64, and a sharp
// drop for tau=1).
func PerceptualSimilarity(d int, tau float64) float64 {
	if d < 0 {
		d = 0
	}
	if d > phash.MaxDistance {
		d = phash.MaxDistance
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	max := float64(phash.MaxDistance)
	num := math.Exp((max-float64(d))/tau) - 1
	den := math.Exp(max/tau) - 1
	return num / den
}

// Distance implements Eq. 1: 1 - sum_f w_f * r_f(ci, cj). The result is in
// [0, 1]: 0 means the clusters are (by the metric) the same meme variant,
// 1 means they share nothing. Full-mode weights are used when both clusters
// are annotated, partial-mode weights otherwise.
func (m *Metric) Distance(a, b ClusterFeatures) float64 {
	d := phash.Distance(a.MedoidHash, b.MedoidHash)
	rp := PerceptualSimilarity(d, DefaultTau)

	w := PartialModeWeights()
	if a.Annotated && b.Annotated {
		w = FullModeWeights()
	}
	sim := w.Perceptual * rp
	if w.Meme > 0 {
		sim += w.Meme * stats.Jaccard(a.Memes, b.Memes)
	}
	if w.People > 0 {
		sim += w.People * stats.Jaccard(a.People, b.People)
	}
	if w.Culture > 0 {
		sim += w.Culture * stats.Jaccard(a.Cultures, b.Cultures)
	}
	dist := 1 - sim
	if dist < 0 {
		return 0
	}
	if dist > 1 {
		return 1
	}
	return dist
}

// Matrix computes the full pairwise distance matrix over the given clusters.
// The matrix is symmetric with a zero diagonal.
func (m *Metric) Matrix(clusters []ClusterFeatures) [][]float64 {
	n := len(clusters)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := m.Distance(clusters[i], clusters[j])
			out[i][j] = d
			out[j][i] = d
		}
	}
	return out
}

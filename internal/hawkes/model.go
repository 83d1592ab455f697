// Package hawkes implements multivariate Hawkes point processes with
// exponential excitation kernels: simulation, maximum-a-posteriori fitting
// via expectation-maximisation, and the root-cause attribution method the
// paper uses to estimate how much each Web community influences meme
// dissemination on the others (Section 5).
//
// The paper fits its models with the Gibbs sampler of Linderman & Adams;
// this package uses an EM algorithm over the same latent branching
// structure, which produces consistent estimates of the background rates and
// the community-to-community weight matrix — the quantities the influence
// matrices (Figures 11-16) are computed from. Ground-truth recovery is
// exercised in the package tests.
package hawkes

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Event is a single point of a multivariate Hawkes process: an occurrence on
// one of the K processes at a given time. In the paper an event is a meme
// image posted on one of the five Web communities.
type Event struct {
	// Time is the event time, in arbitrary but consistent units (the paper
	// uses hours since the start of the observation window).
	Time float64
	// Process is the index of the process (community) the event occurred on,
	// in [0, K).
	Process int
}

// Model is a multivariate Hawkes process with exponential kernels. The
// conditional intensity of process k at time t is
//
//	lambda_k(t) = Mu[k] + sum over events (t_i, c_i) with t_i < t of
//	              W[c_i][k] * Omega * exp(-Omega * (t - t_i))
//
// so W[a][b] is the expected number of additional events on process b caused
// (directly) by one event on process a, and 1/Omega is the mean delay of
// those induced events.
type Model struct {
	// K is the number of processes.
	K int
	// Mu holds the background (exogenous) rate of each process.
	Mu []float64
	// W is the K x K excitation weight matrix; W[a][b] is the expected number
	// of direct offspring on process b per event on process a.
	W [][]float64
	// Omega is the decay rate of the exponential kernel.
	Omega float64
}

// NewModel allocates a zero-valued model with K processes.
func NewModel(k int, omega float64) *Model {
	m := &Model{K: k, Mu: make([]float64, k), W: make([][]float64, k), Omega: omega}
	for i := range m.W {
		m.W[i] = make([]float64, k)
	}
	return m
}

// Validate reports whether the model's parameters are structurally sound.
func (m *Model) Validate() error {
	if m.K <= 0 {
		return errors.New("hawkes: model needs at least one process")
	}
	if len(m.Mu) != m.K || len(m.W) != m.K {
		return fmt.Errorf("hawkes: parameter shapes do not match K=%d", m.K)
	}
	if m.Omega <= 0 {
		return errors.New("hawkes: omega must be positive")
	}
	for i, row := range m.W {
		if len(row) != m.K {
			return fmt.Errorf("hawkes: W row %d has length %d, want %d", i, len(row), m.K)
		}
		for j, w := range row {
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("hawkes: W[%d][%d] = %v is invalid", i, j, w)
			}
		}
	}
	for i, mu := range m.Mu {
		if mu < 0 || math.IsNaN(mu) {
			return fmt.Errorf("hawkes: Mu[%d] = %v is invalid", i, mu)
		}
	}
	return nil
}

// SpectralRadiusBound returns an upper bound on the branching ratio: the
// maximum row sum of W. A value below 1 guarantees the process is stable
// (subcritical) and simulations terminate.
func (m *Model) SpectralRadiusBound() float64 {
	max := 0.0
	for _, row := range m.W {
		sum := 0.0
		for _, w := range row {
			sum += w
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// SortEvents sorts events by time (stable on ties) in place and validates
// process indexes against K.
func SortEvents(events []Event, k int) error {
	for i, e := range events {
		if e.Process < 0 || e.Process >= k {
			return fmt.Errorf("hawkes: event %d has process %d outside [0,%d)", i, e.Process, k)
		}
		if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
			return fmt.Errorf("hawkes: event %d has invalid time %v", i, e.Time)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return nil
}

// CountByProcess returns the number of events on each of the k processes.
func CountByProcess(events []Event, k int) []int {
	counts := make([]int, k)
	for _, e := range events {
		if e.Process >= 0 && e.Process < k {
			counts[e.Process]++
		}
	}
	return counts
}

package hawkes

import (
	"errors"
	"fmt"
	"math"
)

// Attribution holds, for every event, the probability distribution over the
// processes that are its root cause: the community whose background rate
// ultimately started the cascade the event belongs to. This is the improved
// influence measure introduced in Section 5.1 of the paper (Figure 10): an
// event caused directly by the background of its own community attributes
// fully to that community; an event caused by a previous event inherits that
// event's (probabilistic) root cause.
type Attribution struct {
	// K is the number of processes.
	K int
	// RootCause[j][c] is the probability that process c is the root cause of
	// event j. Each row sums to 1.
	RootCause [][]float64
	// Events echoes the time-sorted events the attribution refers to.
	Events []Event
}

// Attribute computes root-cause probabilities from a fitted model and its
// responsibilities. It exploits the exponential kernel to carry, for every
// source process a, a decayed running mixture of the root-cause
// distributions of the events already seen on a, which makes the computation
// exact and O(n * K^2).
func Attribute(fit *FitResult) (*Attribution, error) {
	if fit == nil || fit.Model == nil {
		return nil, errors.New("hawkes: nil fit result")
	}
	k := fit.Model.K
	n := len(fit.Events)
	att := &Attribution{K: k, RootCause: make([][]float64, n), Events: fit.Events}
	if n == 0 {
		return att, nil
	}
	if len(fit.BackgroundResponsibility) != n || len(fit.SourceResponsibility) != n {
		return nil, fmt.Errorf("hawkes: responsibilities (%d, %d) do not match %d events",
			len(fit.BackgroundResponsibility), len(fit.SourceResponsibility), n)
	}
	omega := fit.Model.Omega

	// s[a] is the total decayed kernel mass of past events on process a;
	// r[a][c] is the decayed kernel mass weighted by those events' root-cause
	// probability of community c. r[a][c] / s[a] is then the probability that
	// a parent drawn from process a (with the kernel weighting) has root
	// cause c.
	s := make([]float64, k)
	r := make([][]float64, k)
	for a := range r {
		r[a] = make([]float64, k)
	}
	rows := make([]float64, n*k) // backs every RootCause row
	lastT := 0.0
	for j, e := range fit.Events {
		decay := math.Exp(-omega * (e.Time - lastT))
		for a := 0; a < k; a++ {
			s[a] *= decay
			for c := 0; c < k; c++ {
				r[a][c] *= decay
			}
		}
		lastT = e.Time

		row := rows[j*k : (j+1)*k : (j+1)*k]
		row[e.Process] += fit.BackgroundResponsibility[j]
		for a := 0; a < k; a++ {
			resp := fit.SourceResponsibility[j][a]
			if resp <= 0 || s[a] <= 0 {
				continue
			}
			for c := 0; c < k; c++ {
				row[c] += resp * r[a][c] / s[a]
			}
		}
		// Normalise against numerical drift.
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum > 0 {
			for c := range row {
				row[c] /= sum
			}
		} else {
			row[e.Process] = 1
		}
		att.RootCause[j] = row

		// The event now contributes its own root-cause mixture to future
		// events on its process.
		s[e.Process] += omega
		for c := 0; c < k; c++ {
			r[e.Process][c] += omega * row[c]
		}
	}
	return att, nil
}

// InfluenceMatrix aggregates the attribution into the paper's "raw
// influence" matrix (Figure 11): entry [src][dst] is the expected fraction
// of events on the destination community whose root cause is the source
// community, expressed in [0, 1].
func (a *Attribution) InfluenceMatrix() [][]float64 {
	out := make([][]float64, a.K)
	for i := range out {
		out[i] = make([]float64, a.K)
	}
	destTotals := make([]float64, a.K)
	for j, e := range a.Events {
		destTotals[e.Process]++
		for c := 0; c < a.K; c++ {
			out[c][e.Process] += a.RootCause[j][c]
		}
	}
	for src := 0; src < a.K; src++ {
		for dst := 0; dst < a.K; dst++ {
			if destTotals[dst] > 0 {
				out[src][dst] /= destTotals[dst]
			}
		}
	}
	return out
}

// NormalizedInfluenceMatrix aggregates the attribution into the paper's
// "efficiency" matrix (Figure 12): entry [src][dst] is the expected number
// of events on the destination attributed to the source, divided by the
// total number of events on the source community. Diagonal entries can
// exceed 1 (a community is credited with its own events plus the cascades
// they start there).
func (a *Attribution) NormalizedInfluenceMatrix() [][]float64 {
	out := make([][]float64, a.K)
	for i := range out {
		out[i] = make([]float64, a.K)
	}
	srcTotals := make([]float64, a.K)
	for _, e := range a.Events {
		srcTotals[e.Process]++
	}
	for j, e := range a.Events {
		for c := 0; c < a.K; c++ {
			out[c][e.Process] += a.RootCause[j][c]
		}
	}
	for src := 0; src < a.K; src++ {
		for dst := 0; dst < a.K; dst++ {
			if srcTotals[src] > 0 {
				out[src][dst] /= srcTotals[src]
			}
		}
	}
	return out
}

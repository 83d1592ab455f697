package hawkes

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// FitConfig controls the EM fitting procedure.
type FitConfig struct {
	// K is the number of processes.
	K int
	// Horizon is the length of the observation window; events must lie in
	// [0, Horizon).
	Horizon float64
	// Omega is the (fixed) exponential kernel decay rate.
	Omega float64
	// MaxIter caps the number of EM iterations.
	MaxIter int
	// Tolerance stops iteration when the largest absolute parameter change
	// falls below it.
	Tolerance float64
	// MuPrior and WPrior are weak gamma-prior pseudo-counts that regularise
	// the MAP estimates away from exact zeros; they mirror the priors used by
	// the Gibbs sampler in the paper's reference implementation.
	MuPrior float64
	WPrior  float64
}

// DefaultFitConfig returns a configuration suitable for the paper's setting:
// five communities, hourly time units, a mean excitation delay of one hour,
// and light regularisation.
func DefaultFitConfig(k int, horizon float64) FitConfig {
	return FitConfig{
		K:         k,
		Horizon:   horizon,
		Omega:     1.0,
		MaxIter:   100,
		Tolerance: 1e-5,
		MuPrior:   0.01,
		WPrior:    0.01,
	}
}

// Validate reports whether the configuration is usable.
func (c FitConfig) Validate() error {
	if c.K <= 0 {
		return errors.New("hawkes: fit requires at least one process")
	}
	if c.Horizon <= 0 {
		return errors.New("hawkes: fit requires a positive horizon")
	}
	if c.Omega <= 0 {
		return errors.New("hawkes: fit requires a positive omega")
	}
	if c.MaxIter <= 0 {
		return errors.New("hawkes: fit requires at least one iteration")
	}
	if c.Tolerance < 0 {
		return errors.New("hawkes: negative tolerance")
	}
	if c.MuPrior < 0 || c.WPrior < 0 {
		return errors.New("hawkes: negative prior pseudo-counts")
	}
	return nil
}

// FitResult is the outcome of fitting a Hawkes model to data.
type FitResult struct {
	// Model holds the estimated parameters.
	Model *Model
	// Iterations is the number of EM iterations performed.
	Iterations int
	// Converged reports whether the tolerance was reached before MaxIter.
	Converged bool
	// LogLikelihood is the final observed-data log likelihood.
	LogLikelihood float64
	// BackgroundResponsibility[j] is the posterior probability that event j
	// was generated by its community's background rate rather than by a
	// previous event. Aligned with the (sorted) events passed to Fit.
	BackgroundResponsibility []float64
	// SourceResponsibility[j][a] is the posterior probability that event j
	// was directly caused by some previous event on process a.
	SourceResponsibility [][]float64
	// Events echoes the time-sorted events the model was fitted to.
	Events []Event
}

// Fit estimates the background rates and the excitation weight matrix of a
// multivariate Hawkes process from the observed events using
// expectation-maximisation over the latent branching structure. The E-step
// uses the recursive formulation available for exponential kernels, so the
// total cost is O(len(events) * K) per iteration.
func Fit(events []Event, cfg FitConfig) (*FitResult, error) {
	return FitCtx(context.Background(), events, cfg)
}

// FitCtx is Fit with cooperative cancellation: ctx is checked once per EM
// iteration (the unit of work is O(len(events) * K), so cancellation lands
// within one sweep of the data). A cancelled fit returns ctx.Err() and no
// result. For the same events and configuration, FitCtx and Fit produce
// bitwise-identical results — the serve path relies on this to pin
// /v1/influence against the offline oracle.
//
// The decayed kernel sums S_a(t_j) = sum over previous events i on process a
// of Omega * exp(-Omega (t_j - t_i)) depend only on the event times and
// Omega, not on the parameters being estimated, so they are computed once
// before the EM loop and held for its duration: O(len(events) * K) memory,
// the size of SourceResponsibility.
func FitCtx(ctx context.Context, events []Event, cfg FitConfig) (*FitResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	evs := append([]Event(nil), events...)
	if err := SortEvents(evs, cfg.K); err != nil {
		return nil, err
	}
	for _, e := range evs {
		if e.Time < 0 || e.Time >= cfg.Horizon {
			return nil, fmt.Errorf("hawkes: event time %v outside [0, %v)", e.Time, cfg.Horizon)
		}
	}

	n := len(evs)
	k := cfg.K
	counts := CountByProcess(evs, k)

	// Initial parameters: everything explained by the background, a small
	// uniform excitation.
	model := NewModel(k, cfg.Omega)
	for p := 0; p < k; p++ {
		model.Mu[p] = (float64(counts[p]) + cfg.MuPrior) / cfg.Horizon
		for q := 0; q < k; q++ {
			model.W[p][q] = 0.1
		}
	}
	if n == 0 {
		return &FitResult{Model: model, Converged: true, Events: evs}, nil
	}

	// sums[j*k+a] is S_a(t_j), by the recursion available for exponential
	// kernels; event j itself joins the sums only after its row is taken.
	sums := make([]float64, n*k)
	s := make([]float64, k)
	lastT := 0.0
	for j, e := range evs {
		decay := math.Exp(-cfg.Omega * (e.Time - lastT))
		for a := 0; a < k; a++ {
			s[a] *= decay
		}
		lastT = e.Time
		copy(sums[j*k:], s)
		s[e.Process] += cfg.Omega
	}

	bg := make([]float64, n)
	src := make([][]float64, n)
	srcRows := make([]float64, n*k)
	for j := range src {
		src[j] = srcRows[j*k : (j+1)*k : (j+1)*k]
	}

	// Accumulators for the M-step, cleared at the top of every iteration.
	contrib := make([]float64, k)
	bgSum := make([]float64, k)  // expected background events per process
	wSum := make([][]float64, k) // expected direct offspring from a to b
	for a := range wSum {
		wSum[a] = make([]float64, k)
	}

	var iter int
	converged := false
	for iter = 1; iter <= cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		clear(bgSum)
		for a := range wSum {
			clear(wSum[a])
		}
		// E-step.
		for j, e := range evs {
			sj := sums[j*k : (j+1)*k]
			lambda := model.Mu[e.Process]
			for a := 0; a < k; a++ {
				contrib[a] = model.W[a][e.Process] * sj[a]
				lambda += contrib[a]
			}
			if lambda <= 0 {
				lambda = 1e-12
			}
			bg[j] = model.Mu[e.Process] / lambda
			bgSum[e.Process] += bg[j]
			for a := 0; a < k; a++ {
				r := contrib[a] / lambda
				src[j][a] = r
				wSum[a][e.Process] += r
			}
		}

		// M-step.
		maxDelta := 0.0
		for p := 0; p < k; p++ {
			newMu := (bgSum[p] + cfg.MuPrior) / cfg.Horizon
			if d := math.Abs(newMu - model.Mu[p]); d > maxDelta {
				maxDelta = d
			}
			model.Mu[p] = newMu
		}
		for a := 0; a < k; a++ {
			denom := float64(counts[a]) + 1 // +1 absorbs the gamma prior rate
			for b := 0; b < k; b++ {
				newW := (wSum[a][b] + cfg.WPrior) / denom
				if d := math.Abs(newW - model.W[a][b]); d > maxDelta {
					maxDelta = d
				}
				model.W[a][b] = newW
			}
		}
		if maxDelta < cfg.Tolerance {
			converged = true
			break
		}
	}

	return &FitResult{
		Model:      model,
		Iterations: iter,
		Converged:  converged,
		// Computed from the returned parameters, so it describes the model
		// the caller gets rather than the one the last E-step saw.
		LogLikelihood:            LogLikelihood(model, evs, cfg.Horizon),
		BackgroundResponsibility: bg,
		SourceResponsibility:     src,
		Events:                   evs,
	}, nil
}

// LogLikelihood computes the observed-data log likelihood of the events
// under the model on the window [0, horizon).
func LogLikelihood(m *Model, events []Event, horizon float64) float64 {
	s := make([]float64, m.K)
	lastT := 0.0
	ll := 0.0
	for _, e := range events {
		decay := math.Exp(-m.Omega * (e.Time - lastT))
		for a := 0; a < m.K; a++ {
			s[a] *= decay
		}
		lastT = e.Time
		lambda := m.Mu[e.Process]
		for a := 0; a < m.K; a++ {
			lambda += m.W[a][e.Process] * s[a]
		}
		if lambda <= 0 {
			lambda = 1e-12
		}
		ll += math.Log(lambda)
		s[e.Process] += m.Omega
	}
	for p := 0; p < m.K; p++ {
		ll -= m.Mu[p] * horizon
	}
	for _, e := range events {
		kernelMass := 1 - math.Exp(-m.Omega*(horizon-e.Time))
		for q := 0; q < m.K; q++ {
			ll -= m.W[e.Process][q] * kernelMass
		}
	}
	return ll
}

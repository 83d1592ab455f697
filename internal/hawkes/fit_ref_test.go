package hawkes

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fitReference is the EM loop FitCtx ran before the kernel state was hoisted
// out of it, kept verbatim: it recomputes the decayed sums S_a(t_j), an
// unread log likelihood and a per-event contrib slice on every iteration.
// FitCtx must stay bitwise-identical to it.
func fitReference(ctx context.Context, events []Event, cfg FitConfig) (*FitResult, error) {
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

	bg := make([]float64, n)
	src := make([][]float64, n)
	for j := range src {
		src[j] = make([]float64, k)
	}

	var iter int
	converged := false
	for iter = 1; iter <= cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := make([]float64, k)
		lastT := 0.0
		bgSum := make([]float64, k)
		wSum := make([][]float64, k)
		for a := range wSum {
			wSum[a] = make([]float64, k)
		}
		logLik := 0.0
		for j, e := range evs {
			decay := math.Exp(-cfg.Omega * (e.Time - lastT))
			for a := 0; a < k; a++ {
				s[a] *= decay
			}
			lastT = e.Time

			lambda := model.Mu[e.Process]
			contrib := make([]float64, k)
			for a := 0; a < k; a++ {
				contrib[a] = model.W[a][e.Process] * s[a]
				lambda += contrib[a]
			}
			if lambda <= 0 {
				lambda = 1e-12
			}
			logLik += math.Log(lambda)
			bg[j] = model.Mu[e.Process] / lambda
			bgSum[e.Process] += bg[j]
			for a := 0; a < k; a++ {
				r := contrib[a] / lambda
				src[j][a] = r
				wSum[a][e.Process] += r
			}
			s[e.Process] += cfg.Omega
		}
		for p := 0; p < k; p++ {
			logLik -= model.Mu[p] * cfg.Horizon
		}
		for _, e := range evs {
			kernelMass := 1 - math.Exp(-cfg.Omega*(cfg.Horizon-e.Time))
			for q := 0; q < k; q++ {
				logLik -= model.W[e.Process][q] * kernelMass
			}
		}

		maxDelta := 0.0
		for p := 0; p < k; p++ {
			newMu := (bgSum[p] + cfg.MuPrior) / cfg.Horizon
			if d := math.Abs(newMu - model.Mu[p]); d > maxDelta {
				maxDelta = d
			}
			model.Mu[p] = newMu
		}
		for a := 0; a < k; a++ {
			denom := float64(counts[a]) + 1
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
		Model:                    model,
		Iterations:               iter,
		Converged:                converged,
		LogLikelihood:            LogLikelihood(model, evs, cfg.Horizon),
		BackgroundResponsibility: bg,
		SourceResponsibility:     src,
		Events:                   evs,
	}, nil
}

// simulatedSeries draws a stable k-process model from seed and simulates it.
func simulatedSeries(t *testing.T, k int, seed int64, horizon float64) []Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(k, 1.0)
	for p := 0; p < k; p++ {
		m.Mu[p] = 0.05 + 0.3*rng.Float64()
		for q := 0; q < k; q++ {
			m.W[p][q] = 0.6 * rng.Float64() / float64(k)
		}
	}
	events, err := m.Simulate(rng, horizon)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return events
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameFit fails unless got equals want bit for bit in every field.
func requireSameFit(t *testing.T, got, want *FitResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("iterations/converged = %d/%v, want %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if !sameBits(got.LogLikelihood, want.LogLikelihood) {
		t.Fatalf("log likelihood = %v, want %v", got.LogLikelihood, want.LogLikelihood)
	}
	if len(got.Events) != len(want.Events) ||
		len(got.BackgroundResponsibility) != len(want.BackgroundResponsibility) ||
		len(got.SourceResponsibility) != len(want.SourceResponsibility) {
		t.Fatalf("lengths differ: %d/%d/%d events/bg/src, want %d/%d/%d",
			len(got.Events), len(got.BackgroundResponsibility), len(got.SourceResponsibility),
			len(want.Events), len(want.BackgroundResponsibility), len(want.SourceResponsibility))
	}
	k := want.Model.K
	for p := 0; p < k; p++ {
		if !sameBits(got.Model.Mu[p], want.Model.Mu[p]) {
			t.Fatalf("mu[%d] = %v, want %v", p, got.Model.Mu[p], want.Model.Mu[p])
		}
		for q := 0; q < k; q++ {
			if !sameBits(got.Model.W[p][q], want.Model.W[p][q]) {
				t.Fatalf("w[%d][%d] = %v, want %v", p, q, got.Model.W[p][q], want.Model.W[p][q])
			}
		}
	}
	for j := range want.Events {
		if got.Events[j] != want.Events[j] {
			t.Fatalf("event %d = %+v, want %+v", j, got.Events[j], want.Events[j])
		}
		if !sameBits(got.BackgroundResponsibility[j], want.BackgroundResponsibility[j]) {
			t.Fatalf("bg[%d] = %v, want %v", j, got.BackgroundResponsibility[j], want.BackgroundResponsibility[j])
		}
		for a := 0; a < k; a++ {
			if !sameBits(got.SourceResponsibility[j][a], want.SourceResponsibility[j][a]) {
				t.Fatalf("src[%d][%d] = %v, want %v", j, a, got.SourceResponsibility[j][a], want.SourceResponsibility[j][a])
			}
		}
	}
}

func TestFitMatchesReference(t *testing.T) {
	ctx := context.Background()
	const horizon = 150
	for _, k := range []int{1, 3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			events := simulatedSeries(t, k, seed, horizon)
			inputs := map[string][]Event{
				"simulated": events,
				"empty":     nil,
				"single":    {{Time: 3.5, Process: k - 1}},
			}
			// One configuration with room to converge, one that runs into
			// MaxIter.
			roomy, capped := DefaultFitConfig(k, horizon), DefaultFitConfig(k, horizon)
			roomy.MaxIter = 5000
			capped.MaxIter, capped.Tolerance = 7, 0
			for cfgName, cfg := range map[string]FitConfig{"converged": roomy, "capped": capped} {
				for inName, in := range inputs {
					t.Run(fmt.Sprintf("k%d/seed%d/%s/%s", k, seed, cfgName, inName), func(t *testing.T) {
						want, err := fitReference(ctx, in, cfg)
						if err != nil {
							t.Fatalf("fitReference: %v", err)
						}
						got, err := FitCtx(ctx, in, cfg)
						if err != nil {
							t.Fatalf("FitCtx: %v", err)
						}
						requireSameFit(t, got, want)
						if inName == "simulated" && want.Converged != (cfgName == "converged") {
							t.Fatalf("%s config: converged = %v after %d iterations", cfgName, want.Converged, want.Iterations)
						}
					})
				}
			}
		}
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on, which
// lands a cancel between two EM iterations without timing.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

func TestFitCancelledMidway(t *testing.T) {
	events := simulatedSeries(t, 3, 9, 150)
	cfg := DefaultFitConfig(3, 150)
	cfg.Tolerance = 0 // never converges: the fit runs until cancelled
	ctx := &countdownCtx{Context: context.Background(), left: 5}
	if res, err := FitCtx(ctx, events, cfg); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("FitCtx cancelled between iterations: res = %v, err = %v, want nil, context.Canceled", res, err)
	}
}

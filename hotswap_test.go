package memes

import (
	"context"
	"sync"
	"testing"
)

// TestHotEngineSwap pins the hot-swap contract: Swap atomically replaces the
// served engine, returns the old one intact, bumps the generation, and
// readers that pinned the old generation keep getting identical answers.
func TestHotEngineSwap(t *testing.T) {
	ds, site := engineTestCorpus(t)
	ctx := context.Background()
	a, err := NewEngine(ctx, ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	b, err := NewEngine(ctx, ds, site, WithIndex(IndexSharded))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	hot := NewHotEngine(a)
	if hot.Engine() != a {
		t.Fatal("Engine() does not return the constructed engine")
	}
	if g := hot.Generation(); g != 1 {
		t.Fatalf("initial generation = %d, want 1", g)
	}
	if eng, gen := hot.Pin(); eng != a || gen != 1 {
		t.Fatalf("Pin = (%p, %d), want (%p, 1)", eng, gen, a)
	}
	if old := hot.Swap(b); old != a {
		t.Fatal("Swap did not return the previous engine")
	}
	if eng, gen := hot.Pin(); eng != b || gen != 2 {
		t.Fatalf("after Swap: Pin = (%p, %d), want (%p, 2)", eng, gen, b)
	}

	// The returned old engine is untouched: it still answers queries, and —
	// both engines being built from the same corpus — identically to the
	// replacement.
	for i := range a.Clusters() {
		h := a.Clusters()[i].MedoidHash
		om, ook, err := a.Match(ctx, h)
		if err != nil {
			t.Fatalf("old engine Match: %v", err)
		}
		nm, nok, err := hot.Match(ctx, h)
		if err != nil {
			t.Fatalf("hot Match: %v", err)
		}
		if om != nm || ook != nok {
			t.Fatalf("cluster %d: old (%+v,%v) vs hot (%+v,%v)", i, om, ook, nm, nok)
		}
	}
}

// TestHotEngineConcurrentSwaps hammers queries from many goroutines while
// the engine is swapped underneath them: every query must succeed and return
// the same result regardless of which generation served it (the engines are
// equivalent by construction), which is exactly the zero-dropped-requests
// property the serving layer builds on.
func TestHotEngineConcurrentSwaps(t *testing.T) {
	ds, site := engineTestCorpus(t)
	ctx := context.Background()
	a, err := NewEngine(ctx, ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	b, err := NewEngine(ctx, ds, site, WithIndex(IndexMultiIndex))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	want, err := a.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}

	hot := NewHotEngine(a)
	const (
		readers = 8
		iters   = 20
		swaps   = 50
	)
	// Swaps alternate a (odd generations) and b (even generations), so a
	// pinned (engine, generation) pair is consistent iff the parity lines
	// up — the observable proof the pair is published atomically.
	engines := [2]*Engine{a, b}
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				eng, gen := hot.Pin()
				if eng != engines[(gen+1)%2] {
					t.Errorf("torn pin: generation %d paired with the wrong engine", gen)
					return
				}
				got, err := eng.Associate(ctx, ds.Posts)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					t.Errorf("mid-swap Associate returned %d associations, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("association %d diverged mid-swap: %+v != %+v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		hot.Swap(engines[(i+1)%2])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query failed during swaps: %v", err)
	}
	if g := hot.Generation(); g != 1+swaps {
		t.Fatalf("generation = %d after %d swaps, want %d", g, swaps, 1+swaps)
	}
}

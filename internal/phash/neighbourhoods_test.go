package phash

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// bruteNeighbourhoods is the oracle: an O(n²) scan building every list in
// ascending index order, duplicates and self included.
func bruteNeighbourhoods(hashes []Hash, radius int) [][]int32 {
	out := make([][]int32, len(hashes))
	for i, q := range hashes {
		for j, h := range hashes {
			if Distance(q, h) <= radius {
				out[i] = append(out[i], int32(j))
			}
		}
	}
	return out
}

// clusteredCorpus draws hashes around a few templates (so neighbourhoods
// are non-trivial) with exact duplicates mixed in.
func clusteredCorpus(rng *rand.Rand, n int) []Hash {
	templates := []Hash{Hash(rng.Uint64()), Hash(rng.Uint64()), Hash(rng.Uint64())}
	out := make([]Hash, n)
	for i := range out {
		h := templates[rng.Intn(len(templates))]
		for f := rng.Intn(6); f > 0; f-- {
			h ^= 1 << uint(rng.Intn(64))
		}
		if rng.Intn(4) == 0 && i > 0 {
			h = out[rng.Intn(i)] // exact duplicate
		}
		out[i] = h
	}
	return out
}

// TestNeighbourhoodsMatchesBrute pins every regime — serial symmetric
// kernel, chunked pairwise kernel, and band-table probing with its
// crowded-row fallback — against the brute oracle, with probeCutover
// forced to both sides of every corpus, across radii spanning the banded
// regime (0-15) and the radii it declines (16 and up).
func TestNeighbourhoodsMatchesBrute(t *testing.T) {
	defer func(old int) { probeCutover = old }(probeCutover)
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 37, 300} {
		hashes := clusteredCorpus(rng, n)
		if n == 300 {
			// Sparse rows too: random hashes keep their probe sets small,
			// so these rows stay banded where the clustered ones fall back.
			for i := 0; i < n; i += 2 {
				hashes[i] = Hash(rng.Uint64())
			}
		}
		for _, radius := range []int{0, 2, 7, 8, 10, 15, 16, 64} {
			want := bruteNeighbourhoods(hashes, radius)
			for _, regime := range []struct {
				label   string
				cutover int
			}{{"pairwise", n + 1}, {"probing", 0}} {
				probeCutover = regime.cutover
				for _, workers := range []int{1, 2, 8} {
					got := Neighbourhoods(hashes, radius, workers)
					if len(got) != len(want) {
						t.Fatalf("n=%d r=%d %s w=%d: %d lists, want %d", n, radius, regime.label, workers, len(got), len(want))
					}
					for i := range want {
						if !slices.Equal(got[i], want[i]) {
							t.Fatalf("n=%d r=%d %s w=%d: list %d = %v, want %v",
								n, radius, regime.label, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestNeighbourhoodsNegativeRadius: a negative radius yields empty lists
// (not even self-matches), mirroring MultiIndex.Radius.
func TestNeighbourhoodsNegativeRadius(t *testing.T) {
	got := Neighbourhoods([]Hash{1, 2, 3}, -1, 2)
	if len(got) != 3 {
		t.Fatalf("expected 3 lists, got %d", len(got))
	}
	for i, l := range got {
		if len(l) != 0 {
			t.Fatalf("list %d should be empty, got %v", i, l)
		}
	}
}

// TestCrossNeighbourhoodsMatchesUnionScan pins CrossNeighbourhoodsCtx
// against NeighbourhoodsCtx over the concatenated corpus: each probe row
// must equal the base-index portion of the union scan's row for that probe.
func TestCrossNeighbourhoodsMatchesUnionScan(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, shape := range []struct{ base, probes int }{
		{1, 1}, {40, 1}, {40, 40}, {300, 17}, {17, 300},
	} {
		corpus := clusteredCorpus(rng, shape.base+shape.probes)
		base, probes := corpus[:shape.base], corpus[shape.base:]
		for _, radius := range []int{0, 4, 10} {
			full, err := NeighbourhoodsCtx(context.Background(), corpus, radius, 1)
			if err != nil {
				t.Fatalf("NeighbourhoodsCtx: %v", err)
			}
			for _, workers := range []int{1, 7} {
				cross, err := CrossNeighbourhoodsCtx(context.Background(), base, probes, radius, workers)
				if err != nil {
					t.Fatalf("CrossNeighbourhoodsCtx: %v", err)
				}
				for i := range probes {
					var want []int32
					for _, j := range full[shape.base+i] {
						if int(j) < shape.base {
							want = append(want, j)
						}
					}
					got := cross[i]
					if len(got) != len(want) {
						t.Fatalf("base=%d probes=%d radius=%d workers=%d probe %d: got %d hits, want %d",
							shape.base, shape.probes, radius, workers, i, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("base=%d probes=%d radius=%d workers=%d probe %d: hit %d = %d, want %d",
								shape.base, shape.probes, radius, workers, i, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// TestCrossNeighbourhoodsEdges pins the degenerate inputs.
func TestCrossNeighbourhoodsEdges(t *testing.T) {
	out, err := CrossNeighbourhoodsCtx(context.Background(), nil, []Hash{1}, 4, 2)
	if err != nil {
		t.Fatalf("empty base: %v", err)
	}
	if len(out) != 1 || len(out[0]) != 0 {
		t.Fatalf("empty base should yield one empty row, got %v", out)
	}
	out, err = CrossNeighbourhoodsCtx(context.Background(), []Hash{1}, nil, 4, 2)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty probes should yield no rows, got %v, %v", out, err)
	}
	out, err = CrossNeighbourhoodsCtx(context.Background(), []Hash{1}, []Hash{1}, -1, 2)
	if err != nil || len(out[0]) != 0 {
		t.Fatalf("negative radius should match nothing, got %v, %v", out, err)
	}
}

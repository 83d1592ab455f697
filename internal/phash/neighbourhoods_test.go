package phash

import (
	"context"
	"fmt"
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

// crowdedCorpus mixes what a band table finds hardest: random hashes, exact
// duplicates, a family of near-duplicates of one template, and a crowd that
// shares its low 11 bits — one bucket of band 0 under either layout — while
// differing everywhere else.
func crowdedCorpus(rng *rand.Rand, n int) []Hash {
	template := Hash(rng.Uint64())
	crowd := Hash(rng.Uint64()) & 0x7ff
	out := make([]Hash, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = Hash(rng.Uint64())
		case 1:
			out[i] = perturb(rng, template, rng.Intn(12))
		case 2:
			out[i] = Hash(rng.Uint64())&^0x7ff | crowd
		default:
			out[i] = template
			if i > 0 {
				out[i] = out[rng.Intn(i)]
			}
		}
	}
	return out
}

// checkNeighbourhoods compares NeighbourhoodsCtx with the brute oracle at
// each worker count, under the pairwise kernel and under the band-table
// join over either layout, forced through the cutover variables. Every row
// must be capacity-capped, and the join must emit each pair exactly once:
// as many pairs as the oracle has non-self entries, halved.
func checkNeighbourhoods(t *testing.T, hashes []Hash, radius int, workers ...int) {
	t.Helper()
	defer func(old int) { joinCutover = old }(joinCutover)
	n := len(hashes)
	want := bruteNeighbourhoods(hashes, radius)
	entries := 0
	for _, row := range want {
		entries += len(row)
	}
	check := func(regime string, join bool) {
		for _, w := range workers {
			got, err := NeighbourhoodsCtx(context.Background(), hashes, radius, w)
			if err != nil {
				t.Fatalf("n=%d r=%d %s w=%d: %v", n, radius, regime, w, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d r=%d %s w=%d: %d lists, want %d", n, radius, regime, w, len(got), n)
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("n=%d r=%d %s w=%d: list %d = %v, want %v", n, radius, regime, w, i, got[i], want[i])
				}
				if cap(got[i]) != len(got[i]) {
					t.Fatalf("n=%d r=%d %s w=%d: list %d has capacity %d past its %d entries", n, radius, regime, w, i, cap(got[i]), len(got[i]))
				}
			}
			if !join || n == 0 || radius >= linearRadius(len(bandWidths(n))) {
				continue
			}
			parts, err := newBandTable(hashes).selfJoin(context.Background(), radius, w)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[pair]bool)
			for _, ps := range parts {
				for _, p := range ps {
					if p.i > p.j {
						p.i, p.j = p.j, p.i
					}
					if seen[p] {
						t.Fatalf("n=%d r=%d %s w=%d: pair %v emitted twice", n, radius, regime, w, p)
					}
					seen[p] = true
				}
			}
			if 2*len(seen) != entries-n {
				t.Fatalf("n=%d r=%d %s w=%d: %d pairs emitted, the oracle has %d non-self entries", n, radius, regime, w, len(seen), entries-n)
			}
		}
	}
	joinCutover = n + 1
	check("pairwise", false)
	joinCutover = 0
	forEachLayout(func() { check(fmt.Sprintf("join over %d bands", len(bandWidths(n))), true) })
}

// TestNeighbourhoodsMatchesBrute pins both regimes — the pairwise kernel and
// the band-table join over either layout — against the brute oracle on
// clustered, sparse, crowded-bucket and duplicate-heavy corpora, at radii on
// both sides of each layout's linear radius (12 over six bands, 16 over
// eight).
func TestNeighbourhoodsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 37, 300} {
		corpora := [][]Hash{clusteredCorpus(rng, n), crowdedCorpus(rng, n)}
		if n == 300 {
			// Sparse rows too: random hashes keep their buckets small.
			sparse := clusteredCorpus(rng, n)
			for i := 0; i < n; i += 2 {
				sparse[i] = Hash(rng.Uint64())
			}
			corpora = append(corpora, sparse)
		}
		for _, hashes := range corpora {
			for _, radius := range []int{0, 2, 7, 8, 10, 11, 12, 15, 16, 64} {
				checkNeighbourhoods(t, hashes, radius, 1, 2, 8)
			}
		}
	}
}

// FuzzNeighbourhoods drives checkNeighbourhoods from the fuzzer: any seed
// and size of crowded-bucket corpus (duplicates included), any radius 0-64
// and 1-8 workers, under every regime and layout.
func FuzzNeighbourhoods(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint8(1))
	f.Add(int64(2), uint16(40), uint8(10), uint8(2))
	f.Add(int64(3), uint16(0), uint8(0), uint8(8))
	f.Add(int64(4), uint16(129), uint8(11), uint8(3))
	f.Add(int64(5), uint16(7), uint8(64), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, radius, workers uint8) {
		hashes := crowdedCorpus(rand.New(rand.NewSource(seed)), int(size%400))
		checkNeighbourhoods(t, hashes, int(radius)%(MaxDistance+1), 1+int(workers)%8)
	})
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

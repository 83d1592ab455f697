package phash

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// pairCorpus draws the (hash, id) pairs a multi-index is built over: random
// hashes, or near-duplicate families around a few templates, in both cases
// with exact duplicate hashes carrying several ids. Ids are shuffled so the
// lowest id is not the first inserted.
func pairCorpus(rng *rand.Rand, n int, clustered bool) ([]Hash, []int64) {
	hashes := make([]Hash, n)
	if clustered {
		hashes = clusteredCorpus(rng, n)
	} else {
		for i := range hashes {
			hashes[i] = Hash(rng.Uint64())
			if i > 0 && rng.Intn(8) == 0 {
				hashes[i] = hashes[rng.Intn(i)]
			}
		}
	}
	ids := make([]int64, n)
	for i, p := range rng.Perm(n) {
		ids[i] = int64(p) - 3 // a few negative ids: the tie-break compares, it does not assume
	}
	return hashes, ids
}

// scanNearestWithin is the oracle: a linear scan keeping the minimum
// distance within radius and, among equals, the lowest id.
func scanNearestWithin(hashes []Hash, ids []int64, q Hash, radius int) (id int64, dist int, ok bool) {
	for i, h := range hashes {
		d := Distance(q, h)
		if d > radius {
			continue
		}
		if !ok || d < dist || (d == dist && ids[i] < id) {
			id, dist, ok = ids[i], d, true
		}
	}
	return id, dist, ok
}

// scanRadius is the oracle for Radius: one match per distinct hash with its
// ids ascending, sorted by distance then hash; nil when nothing matches.
func scanRadius(hashes []Hash, ids []int64, q Hash, radius int) []Match {
	byHash := bruteRadius(hashes, ids, q, radius)
	var out []Match
	for h, l := range byHash {
		slices.Sort(l)
		out = append(out, Match{Hash: h, Distance: Distance(q, h), IDs: l})
	}
	slices.SortFunc(out, compareMatches)
	return out
}

func sealedIndex(hashes []Hash, ids []int64) *MultiIndex {
	m := NewMultiIndex()
	for i, h := range hashes {
		m.Insert(h, ids[i])
	}
	m.Seal()
	return m
}

// forEachLayout runs fn once with newBandTable forced to eight 8-bit bands
// and once to the six wide ones.
func forEachLayout(fn func()) {
	defer func(old int) { wideCutover = old }(wideCutover)
	for _, cutover := range []int{1 << 30, 0} {
		wideCutover = cutover
		fn()
	}
}

// checkMultiIndex compares every query surface of a sealed index with the
// linear-scan oracles for one (query, radius).
func checkMultiIndex(t *testing.T, m *MultiIndex, hashes []Hash, ids []int64, q Hash, radius int, s *Scratch) {
	t.Helper()
	wantID, wantDist, wantOK := scanNearestWithin(hashes, ids, q, radius)
	if id, dist, ok := m.NearestWithin(q, radius); ok != wantOK || (ok && (id != wantID || dist != wantDist)) {
		t.Fatalf("NearestWithin(%#x, %d) = (%d, %d, %v), linear scan says (%d, %d, %v)",
			q, radius, id, dist, ok, wantID, wantDist, wantOK)
	}
	want := scanRadius(hashes, ids, q, radius)
	if got := m.Radius(q, radius); !reflect.DeepEqual(got, want) {
		t.Fatalf("Radius(%#x, %d) = %v, linear scan says %v", q, radius, got, want)
	}
	if got := m.RadiusScratch(q, radius, s); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("RadiusScratch(%#x, %d) = %v, linear scan says %v", q, radius, got, want)
	}
}

// TestMultiIndexMatchesLinearScan sweeps every radius over both corpus
// shapes and both band layouts, so the banded regime (0-15 over eight bands,
// 0-11 over six), its crowded-neighbourhood fallback and the linear regime
// are all compared with the oracle.
func TestMultiIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var s Scratch
	forEachLayout(func() {
		for _, clustered := range []bool{false, true} {
			for _, n := range []int{0, 1, 9, 400} {
				hashes, ids := pairCorpus(rng, n, clustered)
				m := sealedIndex(hashes, ids)
				for radius := -1; radius <= MaxDistance; radius++ {
					for trial := 0; trial < 4; trial++ {
						q := Hash(rng.Uint64())
						if n > 0 && trial > 0 {
							q = perturb(rng, hashes[rng.Intn(n)], rng.Intn(2*trial+1))
						}
						checkMultiIndex(t, m, hashes, ids, q, radius, &s)
					}
				}
			}
		}
	})
}

// FuzzNearestWithin drives the same comparison from the fuzzer: any corpus
// seed, shape, query and radius must see the band table agree with the
// linear scan on NearestWithin, Radius and RadiusScratch.
func FuzzNearestWithin(f *testing.F) {
	f.Add(int64(1), false, uint64(0x55352b0b8d8b5b53), 8)
	f.Add(int64(2), true, uint64(0), 0)
	f.Add(int64(3), true, uint64(0xffffffffffffffff), 64)
	f.Add(int64(4), false, uint64(1), -1)
	f.Add(int64(64), true, uint64(7), 15) // n = 0: the empty index
	f.Add(int64(5), false, uint64(9), 16)
	f.Fuzz(func(t *testing.T, seed int64, clustered bool, query uint64, radius int) {
		if radius < -1 || radius > MaxDistance {
			radius = int(uint(radius)%(MaxDistance+2)) - 1
		}
		rng := rand.New(rand.NewSource(seed))
		hashes, ids := pairCorpus(rng, int(uint64(seed)%64)*5, clustered)
		near := Hash(query)
		if len(hashes) > 0 {
			// A query near a stored hash: the interesting case for ties.
			near = perturb(rng, hashes[rng.Intn(len(hashes))], int(query%7))
		}
		var s Scratch
		forEachLayout(func() {
			m := sealedIndex(hashes, ids)
			checkMultiIndex(t, m, hashes, ids, Hash(query), radius, &s)
			checkMultiIndex(t, m, hashes, ids, near, radius, &s)
		})
	})
}

// TestMultiIndexUnsealedQueries pins the cold path: a query before Seal
// answers from a sealed copy and leaves the index open for more inserts.
func TestMultiIndexUnsealedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hashes, ids := pairCorpus(rng, 60, true)
	m := NewMultiIndex()
	for i, h := range hashes[:30] {
		m.Insert(h, ids[i])
	}
	q := hashes[3]
	if got, want := m.Radius(q, 8), scanRadius(hashes[:30], ids[:30], q, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("unsealed Radius = %v, want %v", got, want)
	}
	for i, h := range hashes[30:] {
		m.Insert(h, ids[30+i])
	}
	wantID, wantDist, wantOK := scanNearestWithin(hashes, ids, q, 8)
	if id, dist, ok := m.NearestWithin(q, 8); id != wantID || dist != wantDist || ok != wantOK {
		t.Fatalf("unsealed NearestWithin = (%d, %d, %v), want (%d, %d, %v)", id, dist, ok, wantID, wantDist, wantOK)
	}
	m.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert into a sealed MultiIndex did not panic")
		}
	}()
	m.Insert(Hash(1), 1)
}

// TestMultiIndexZeroAlloc pins the steady state of every sealed query path.
func TestMultiIndexZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hashes, ids := pairCorpus(rng, 2000, true)
	m := sealedIndex(hashes, ids)
	queries := make([]Hash, 64)
	for i := range queries {
		queries[i] = perturb(rng, hashes[rng.Intn(len(hashes))], rng.Intn(10))
	}
	var s Scratch
	for _, q := range queries {
		m.RadiusScratch(q, 30, &s) // warm the scratch to working-set size
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			m.NearestWithin(q, 8)
			m.NearestWithin(q, 40)
			m.RadiusScratch(q, 8, &s)
			m.RadiusScratch(q, 30, &s)
			m.Nearest(q)
		}
	}); allocs != 0 {
		t.Fatalf("sealed multi-index queries allocate %.1f per run, want 0", allocs)
	}
}

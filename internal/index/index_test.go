package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/memes-pipeline/memes/internal/phash"
)

// canonical reduces a radius result to its canonical form — distinct hash →
// sorted ID list — so implementations are compared on the match *set*, not
// on ordering or duplicate-merging choices.
func canonical(t *testing.T, q phash.Hash, radius int, ms []phash.Match) map[phash.Hash][]int64 {
	t.Helper()
	out := make(map[phash.Hash][]int64, len(ms))
	for _, m := range ms {
		if got := phash.Distance(q, m.Hash); m.Distance != got {
			t.Fatalf("match %v carries distance %d, true distance %d", m.Hash, m.Distance, got)
		}
		if m.Distance > radius {
			t.Fatalf("match %v at distance %d exceeds radius %d", m.Hash, m.Distance, radius)
		}
		out[m.Hash] = append(out[m.Hash], m.IDs...)
	}
	for h := range out {
		ids := out[h]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return out
}

// linearScan is the reference implementation every strategy must agree with.
func linearScan(hashes []phash.Hash, ids []int64, q phash.Hash, radius int) map[phash.Hash][]int64 {
	out := make(map[phash.Hash][]int64)
	for i, h := range hashes {
		if phash.Distance(h, q) <= radius {
			out[h] = append(out[h], ids[i])
		}
	}
	for h := range out {
		l := out[h]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return out
}

// scanNearestWithin is the Step 6 reduction over the linear scan: minimum
// distance within radius, ties to the lowest id.
func scanNearestWithin(hashes []phash.Hash, ids []int64, q phash.Hash, radius int) (id int64, dist int, ok bool) {
	for i, h := range hashes {
		d := phash.Distance(h, q)
		if d > radius {
			continue
		}
		if !ok || d < dist || (d == dist && ids[i] < id) {
			id, dist, ok = ids[i], d, true
		}
	}
	return id, dist, ok
}

// checkQueryForms asserts what the sealed index serves beyond the Radius
// match set: the scratch path is bitwise identical to Radius, a fused
// NearestWithin elects the winner the linear scan does, and the multi-index
// returns one match per hash, ids ascending, sorted by distance then hash.
func checkQueryForms(t *testing.T, s Strategy, idx MedoidIndex, hashes []phash.Hash, ids []int64, q phash.Hash, radius int) {
	t.Helper()
	raw := idx.Radius(q, radius)
	if sq, ok := idx.(ScratchQuerier); ok {
		var sc phash.Scratch
		if got := sq.RadiusScratch(q, radius, &sc); !matchesEqual(got, raw) {
			t.Errorf("%s: RadiusScratch(%v, %d) is not bitwise identical to Radius", s, q, radius)
		}
	}
	if nw, ok := idx.(NearestWithiner); ok {
		wantID, wantDist, wantOK := scanNearestWithin(hashes, ids, q, radius)
		if id, dist, found := nw.NearestWithin(q, radius); found != wantOK || (found && (id != wantID || dist != wantDist)) {
			t.Errorf("%s: NearestWithin(%v, %d) = (%d, %d, %v), linear scan says (%d, %d, %v)",
				s, q, radius, id, dist, found, wantID, wantDist, wantOK)
		}
	}
	if s != MultiIndex {
		return
	}
	for i, m := range raw {
		if !sort.SliceIsSorted(m.IDs, func(a, b int) bool { return m.IDs[a] < m.IDs[b] }) {
			t.Errorf("%s: match %v carries unsorted ids %v", s, m.Hash, m.IDs)
		}
		if i > 0 && (raw[i-1].Distance > m.Distance || (raw[i-1].Distance == m.Distance && raw[i-1].Hash >= m.Hash)) {
			t.Errorf("%s: Radius(%v, %d) is not sorted by distance then distinct hash at %d", s, q, radius, i)
		}
	}
}

// corpus synthesises a hash set that looks like the pipeline's medoids:
// mostly random hashes, plus tight near-duplicate families, plus exact
// duplicates carrying several IDs.
func corpus(rng *rand.Rand, n int) ([]phash.Hash, []int64) {
	var hashes []phash.Hash
	var ids []int64
	add := func(h phash.Hash) {
		hashes = append(hashes, h)
		ids = append(ids, int64(len(ids)))
	}
	for i := 0; i < n; i++ {
		add(phash.Hash(rng.Uint64()))
	}
	// Near-duplicate families around a few seeds.
	for f := 0; f < 3 && len(hashes) > 0; f++ {
		base := hashes[rng.Intn(len(hashes))]
		for i := 0; i < 10; i++ {
			h := base
			for _, bit := range rng.Perm(64)[:rng.Intn(6)] {
				h ^= 1 << uint(bit)
			}
			add(h)
		}
	}
	// Exact duplicates: same hash, distinct IDs.
	for i := 0; i < 5 && len(hashes) > 0; i++ {
		add(hashes[rng.Intn(len(hashes))])
	}
	return hashes, ids
}

// checkEquivalence inserts the corpus into every registered strategy and
// asserts Radius agrees with the linear scan for the given query and radius.
func checkEquivalence(t *testing.T, hashes []phash.Hash, ids []int64, q phash.Hash, radius int) {
	t.Helper()
	want := linearScan(hashes, ids, q, radius)
	for _, s := range Strategies() {
		idx, err := New(s)
		if err != nil {
			t.Fatalf("New(%q): %v", s, err)
		}
		for i, h := range hashes {
			idx.Insert(h, ids[i])
		}
		if idx.Len() != len(hashes) {
			t.Fatalf("%s: Len = %d, want %d", s, idx.Len(), len(hashes))
		}
		raw := idx.Radius(q, radius)
		got := canonical(t, q, radius, raw)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Radius(%v, %d) diverges from linear scan: got %d hashes, want %d",
				s, q, radius, len(got), len(want))
		}
		if sealer, ok := idx.(Sealer); ok {
			// Sealing must serve the exact same bytes — same matches, same
			// order: the compilation invariant the snapshot path rests on.
			sealer.Seal()
			if got := idx.Radius(q, radius); !matchesEqual(got, raw) {
				t.Errorf("%s: sealed Radius(%v, %d) is not bitwise identical to unsealed", s, q, radius)
			}
		}
		checkQueryForms(t, s, idx, hashes, ids, q, radius)
	}
}

// matchesEqual compares two radius results including order, treating nil and
// empty as equal (the scratch path returns an empty reused buffer where the
// allocating path returns nil).
func matchesEqual(a, b []phash.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Hash != b[i].Hash || a[i].Distance != b[i].Distance || !reflect.DeepEqual(a[i].IDs, b[i].IDs) {
			return false
		}
	}
	return true
}

// TestRadiusEquivalenceProperty is the refactor's correctness boundary: for
// random hash sets and radii, every registered strategy returns exactly the
// linear-scan match set.
func TestRadiusEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hashes, ids := corpus(rng, 80+rng.Intn(200))
		for trial := 0; trial < 8; trial++ {
			q := hashes[rng.Intn(len(hashes))]
			if trial%2 == 0 {
				for _, bit := range rng.Perm(64)[:rng.Intn(12)] {
					q ^= 1 << uint(bit)
				}
			}
			// Cover the operating point (8), both sides of the radii at
			// which the multi-index changes its probe set (7|8, 15|16),
			// and the extremes.
			radius := []int{0, 1, 7, 8, 12, 15, 16, 64}[rng.Intn(8)]
			checkEquivalence(t, hashes, ids, q, radius)
		}
	}
}

// TestNearestEquivalence asserts every strategy's Nearest returns the same
// deterministic winner: the minimum distance of a linear scan, ties broken
// by the lowest hash value — so Nearest agrees across strategies and runs.
func TestNearestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hashes, ids := corpus(rng, 150)
	for _, s := range Strategies() {
		idx, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hashes {
			idx.Insert(h, ids[i])
		}
		checkNearest := func(label string) {
			trialRng := rand.New(rand.NewSource(42 ^ int64(len(hashes))))
			for trial := 0; trial < 40; trial++ {
				// Alternate far-off random queries with perturbed stored hashes
				// (the latter make same-distance ties likely in the
				// near-duplicate families).
				q := phash.Hash(trialRng.Uint64())
				if trial%2 == 0 {
					q = hashes[trialRng.Intn(len(hashes))]
					for _, bit := range trialRng.Perm(64)[:1+trialRng.Intn(4)] {
						q ^= 1 << uint(bit)
					}
				}
				m, ok := idx.Nearest(q)
				if !ok {
					t.Fatalf("%s/%s: Nearest returned not found on non-empty index", s, label)
				}
				bestDist := phash.MaxDistance + 1
				var bestHash phash.Hash
				for _, h := range hashes {
					if d := phash.Distance(h, q); d < bestDist || (d == bestDist && h < bestHash) {
						bestDist, bestHash = d, h
					}
				}
				if m.Distance != bestDist || m.Hash != bestHash {
					t.Fatalf("%s/%s: Nearest = (%v, %d), linear scan says (%v, %d)",
						s, label, m.Hash, m.Distance, bestHash, bestDist)
				}
			}
		}
		checkNearest("unsealed")
		// The sealed form must elect the identical deterministic winner.
		if sealer, ok := idx.(Sealer); ok {
			sealer.Seal()
			checkNearest("sealed")
		}
	}
}

// TestSealedNearestZeroAlloc pins Nearest on every sealed strategy to zero
// allocations: the candidate stack lives in the frame, not on the heap.
func TestSealedNearestZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hashes, ids := corpus(rng, 4000)
	queries := make([]phash.Hash, 64)
	for i := range queries {
		queries[i] = phash.Hash(rng.Uint64())
	}
	for _, s := range Strategies() {
		idx, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hashes {
			idx.Insert(h, ids[i])
		}
		idx.(Sealer).Seal()
		if allocs := testing.AllocsPerRun(20, func() {
			for _, q := range queries {
				idx.Nearest(q)
			}
		}); allocs != 0 {
			t.Errorf("%s: sealed Nearest allocates %.1f per run, want 0", s, allocs)
		}
	}
}

// TestWalkVisitsEveryDistinctHash asserts Walk coverage and early stop for
// every strategy.
func TestWalkVisitsEveryDistinctHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hashes, ids := corpus(rng, 60)
	distinct := make(map[phash.Hash]int)
	for _, h := range hashes {
		distinct[h]++
	}
	for _, s := range Strategies() {
		idx, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hashes {
			idx.Insert(h, ids[i])
		}
		checkWalk := func(label string) {
			seen := make(map[phash.Hash]int)
			idx.Walk(func(h phash.Hash, ids []int64) bool {
				seen[h] += len(ids)
				return true
			})
			if len(seen) != len(distinct) {
				t.Fatalf("%s/%s: walk visited %d distinct hashes, want %d", s, label, len(seen), len(distinct))
			}
			for h, n := range distinct {
				if seen[h] != n {
					t.Fatalf("%s/%s: walk saw %d IDs for %v, want %d", s, label, seen[h], h, n)
				}
			}
			stops := 0
			idx.Walk(func(phash.Hash, []int64) bool {
				stops++
				return stops < 3
			})
			if stops != 3 {
				t.Fatalf("%s/%s: early stop visited %d, want 3", s, label, stops)
			}
		}
		checkWalk("unsealed")
		// The sealed form must cover the identical distinct-hash set.
		if sealer, ok := idx.(Sealer); ok {
			sealer.Seal()
			checkWalk("sealed")
		}
	}
}

// TestEmptyAndNegativeRadius pins down the edge-case contract shared by all
// strategies.
func TestEmptyAndNegativeRadius(t *testing.T) {
	for _, s := range Strategies() {
		idx, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.Radius(phash.Hash(1), 8); len(got) != 0 {
			t.Fatalf("%s: empty index returned %d matches", s, len(got))
		}
		if _, ok := idx.Nearest(phash.Hash(1)); ok {
			t.Fatalf("%s: empty index has a nearest", s)
		}
		idx.Insert(phash.Hash(1), 1)
		if got := idx.Radius(phash.Hash(1), -1); len(got) != 0 {
			t.Fatalf("%s: negative radius returned %d matches", s, len(got))
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if err := Strategy("nope").Validate(); err == nil {
		t.Fatal("unknown strategy validated")
	}
	if err := Strategy("").Validate(); err != nil {
		t.Fatalf("empty strategy should validate as default: %v", err)
	}
	idx, err := New("")
	if err != nil || idx == nil {
		t.Fatalf("New(\"\") = (%v, %v), want default index", idx, err)
	}
	if err := Register("", func() MedoidIndex { return phash.NewBKTree() }); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := Register(BKTree, func() MedoidIndex { return phash.NewBKTree() }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register("test-only", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	want := []Strategy{BKTree, MultiIndex, Sharded}
	got := Strategies()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in strategy %q missing from %v", w, got)
		}
	}
}

func TestShardedShardCount(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, defaultShards}, {-3, defaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := len(NewShardedBK(tc.in).shards); got != tc.want {
			t.Errorf("NewShardedBK(%d) has %d shards, want %d", tc.in, got, tc.want)
		}
	}
	// A single-shard index must still be exact.
	rng := rand.New(rand.NewSource(3))
	hashes, ids := corpus(rng, 50)
	one := NewShardedBK(1)
	for i, h := range hashes {
		one.Insert(h, ids[i])
	}
	q := hashes[0]
	got := canonical(t, q, 8, one.Radius(q, 8))
	if want := linearScan(hashes, ids, q, 8); !reflect.DeepEqual(got, want) {
		t.Fatal("single-shard index diverges from linear scan")
	}
}

// TestShardedRadiusDeterministic asserts repeated queries return the exact
// same slice content — the concatenation order is fixed by shard order, not
// by goroutine scheduling.
func TestShardedRadiusDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hashes, ids := corpus(rng, 300)
	idx := NewShardedBK(0)
	for i, h := range hashes {
		idx.Insert(h, ids[i])
	}
	q := hashes[7]
	base := idx.Radius(q, 16)
	for i := 0; i < 5; i++ {
		if got := idx.Radius(q, 16); len(got) != len(base) {
			t.Fatalf("run %d: %d matches, first run had %d", i, len(got), len(base))
		}
	}
}

// FuzzRadiusEquivalence drives the same property as the seeded test from
// the fuzzer, across both forms of every index: any (seed, query, radius)
// triple must see every strategy agree with the linear scan, and the sealed
// form of each strategy must serve bitwise-identical Radius output (through
// the scratch path too), the linear scan's NearestWithin winner where it
// offers one, the same Nearest winner, and the same Walk coverage as its
// unsealed form.
func FuzzRadiusEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0x55352b0b8d8b5b53), 8)
	f.Add(int64(2), uint64(0), 0)
	f.Add(int64(3), uint64(0xffffffffffffffff), 64)
	f.Fuzz(func(t *testing.T, seed int64, query uint64, radius int) {
		if radius < -1 || radius > 64 {
			radius %= 65
		}
		rng := rand.New(rand.NewSource(seed))
		hashes, ids := corpus(rng, 40+int(uint64(seed)%64))
		q := phash.Hash(query)
		want := linearScan(hashes, ids, q, radius)
		for _, s := range Strategies() {
			idx, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hashes {
				idx.Insert(h, ids[i])
			}
			raw := idx.Radius(q, radius)
			got := canonical(t, q, radius, raw)
			if radius < 0 {
				if len(got) != 0 {
					t.Fatalf("%s: negative radius returned matches", s)
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Radius(%x, %d) diverges from linear scan", s, query, radius)
			}
			pointerNearest, pointerOK := idx.Nearest(q)
			pointerWalk := walkSet(idx)

			sealer, ok := idx.(Sealer)
			if !ok {
				continue
			}
			sealer.Seal()
			if sealedRaw := idx.Radius(q, radius); !matchesEqual(sealedRaw, raw) {
				t.Fatalf("%s: sealed Radius(%x, %d) not bitwise identical to pointer form", s, query, radius)
			}
			checkQueryForms(t, s, idx, hashes, ids, q, radius)
			sealedNearest, sealedOK := idx.Nearest(q)
			if pointerOK != sealedOK || pointerNearest.Hash != sealedNearest.Hash || pointerNearest.Distance != sealedNearest.Distance {
				t.Fatalf("%s: sealed Nearest(%x) = (%v,%v), pointer form = (%v,%v)",
					s, query, sealedNearest, sealedOK, pointerNearest, pointerOK)
			}
			if sealedWalk := walkSet(idx); !reflect.DeepEqual(sealedWalk, pointerWalk) {
				t.Fatalf("%s: sealed Walk covers %d hashes, pointer form %d", s, len(sealedWalk), len(pointerWalk))
			}
		}
	})
}

// walkSet canonicalises Walk output to distinct hash → sorted IDs.
func walkSet(idx MedoidIndex) map[phash.Hash][]int64 {
	out := make(map[phash.Hash][]int64)
	idx.Walk(func(h phash.Hash, ids []int64) bool {
		out[h] = append(out[h], ids...)
		return true
	})
	for h := range out {
		l := out[h]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return out
}

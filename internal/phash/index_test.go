package phash

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomHashes generates n random hashes with a deterministic seed.
func randomHashes(seed int64, n int) []Hash {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Hash, n)
	for i := range out {
		out[i] = Hash(rng.Uint64())
	}
	return out
}

// perturb flips exactly k random distinct bits of h.
func perturb(rng *rand.Rand, h Hash, k int) Hash {
	perm := rng.Perm(64)
	for i := 0; i < k; i++ {
		h ^= 1 << uint(perm[i])
	}
	return h
}

// bruteRadius is the reference implementation for radius queries.
func bruteRadius(hashes []Hash, ids []int64, q Hash, radius int) map[Hash][]int64 {
	out := make(map[Hash][]int64)
	for i, h := range hashes {
		if Distance(h, q) <= radius {
			out[h] = append(out[h], ids[i])
		}
	}
	return out
}

func TestBKTreeEmpty(t *testing.T) {
	tr := NewBKTree()
	if tr.Len() != 0 || tr.Keys() != 0 {
		t.Fatal("empty tree should have zero size")
	}
	if got := tr.Radius(Hash(1), 5); got != nil {
		t.Fatalf("empty tree radius should be nil, got %v", got)
	}
	if _, ok := tr.Nearest(Hash(1)); ok {
		t.Fatal("empty tree should have no nearest")
	}
}

func TestBKTreeInsertDuplicates(t *testing.T) {
	tr := NewBKTree()
	tr.Insert(Hash(42), 1)
	tr.Insert(Hash(42), 2)
	tr.Insert(Hash(42), 3)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Keys() != 1 {
		t.Fatalf("Keys = %d, want 1", tr.Keys())
	}
	got := tr.Radius(Hash(42), 0)
	if len(got) != 1 || len(got[0].IDs) != 3 {
		t.Fatalf("expected one match with 3 ids, got %+v", got)
	}
}

func TestBKTreeRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	hashes := randomHashes(5, 500)
	ids := make([]int64, len(hashes))
	tr := NewBKTree()
	for i, h := range hashes {
		ids[i] = int64(i)
		tr.Insert(h, int64(i))
	}
	for trial := 0; trial < 30; trial++ {
		q := hashes[rng.Intn(len(hashes))]
		if trial%3 == 0 {
			q = perturb(rng, q, rng.Intn(10))
		}
		radius := rng.Intn(16)
		want := bruteRadius(hashes, ids, q, radius)
		got := tr.Radius(q, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d matches, want %d", trial, len(got), len(want))
		}
		for _, m := range got {
			wantIDs, ok := want[m.Hash]
			if !ok {
				t.Fatalf("unexpected match %v", m.Hash)
			}
			if len(m.IDs) != len(wantIDs) {
				t.Fatalf("ID count mismatch for %v", m.Hash)
			}
			if m.Distance != Distance(q, m.Hash) {
				t.Fatalf("distance mismatch for %v", m.Hash)
			}
		}
	}
}

func TestBKTreeNearest(t *testing.T) {
	tr := NewBKTree()
	rng := rand.New(rand.NewSource(7))
	hashes := randomHashes(17, 200)
	for i, h := range hashes {
		tr.Insert(h, int64(i))
	}
	for trial := 0; trial < 20; trial++ {
		q := perturb(rng, hashes[rng.Intn(len(hashes))], rng.Intn(6))
		got, ok := tr.Nearest(q)
		if !ok {
			t.Fatal("Nearest returned not found")
		}
		best := MaxDistance + 1
		for _, h := range hashes {
			if d := Distance(h, q); d < best {
				best = d
			}
		}
		if got.Distance != best {
			t.Fatalf("Nearest distance %d, want %d", got.Distance, best)
		}
	}
}

func TestBKTreeWalk(t *testing.T) {
	tr := NewBKTree()
	hashes := randomHashes(31, 100)
	for i, h := range hashes {
		tr.Insert(h, int64(i))
	}
	seen := make(map[Hash]bool)
	tr.Walk(func(h Hash, ids []int64) bool {
		seen[h] = true
		return true
	})
	distinct := make(map[Hash]bool)
	for _, h := range hashes {
		distinct[h] = true
	}
	if len(seen) != len(distinct) {
		t.Fatalf("walk visited %d hashes, want %d", len(seen), len(distinct))
	}
	// Early stop.
	count := 0
	tr.Walk(func(h Hash, ids []int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("walk early stop visited %d, want 5", count)
	}
}

func TestMultiIndexRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	hashes := randomHashes(55, 400)
	// Add clusters of similar hashes so small radii have matches.
	base := hashes[0]
	for i := 0; i < 50; i++ {
		hashes = append(hashes, perturb(rng, base, rng.Intn(6)))
	}
	ids := make([]int64, len(hashes))
	mi := NewMultiIndex()
	for i, h := range hashes {
		ids[i] = int64(i)
		mi.Insert(h, int64(i))
	}
	mi.Seal()
	if mi.Len() != len(hashes) {
		t.Fatalf("Len = %d, want %d", mi.Len(), len(hashes))
	}
	for _, radius := range []int{0, 1, 2, 4, 7, 8, 12, 20} {
		for trial := 0; trial < 10; trial++ {
			q := hashes[rng.Intn(len(hashes))]
			if trial%2 == 0 {
				q = perturb(rng, q, rng.Intn(4))
			}
			want := bruteRadius(hashes, ids, q, radius)
			got := mi.Radius(q, radius)
			if len(got) != len(want) {
				t.Fatalf("radius %d: got %d distinct hashes, want %d", radius, len(got), len(want))
			}
			for _, m := range got {
				wantIDs := want[m.Hash]
				if len(m.IDs) != len(wantIDs) {
					t.Fatalf("radius %d: ID mismatch for hash %v: got %d want %d",
						radius, m.Hash, len(m.IDs), len(wantIDs))
				}
			}
		}
	}
}

func TestMultiIndexEmptyAndNegativeRadius(t *testing.T) {
	mi := NewMultiIndex()
	if got := mi.Radius(Hash(5), 8); got != nil {
		t.Fatal("empty index should return nil")
	}
	mi.Insert(Hash(5), 1)
	if got := mi.Radius(Hash(5), -1); got != nil {
		t.Fatal("negative radius should return nil")
	}
}

func TestMultiIndexResultsSorted(t *testing.T) {
	mi := NewMultiIndex()
	rng := rand.New(rand.NewSource(5))
	base := Hash(rng.Uint64())
	for i := 0; i < 100; i++ {
		mi.Insert(perturb(rng, base, rng.Intn(10)), int64(i))
	}
	mi.Seal()
	got := mi.Radius(base, 64)
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].Distance != got[j].Distance {
			return got[i].Distance < got[j].Distance
		}
		return got[i].Hash < got[j].Hash
	}) {
		t.Fatal("results are not sorted by distance then hash")
	}
}

func TestBKTreeAndMultiIndexAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		hashes := make([]Hash, n)
		tr := NewBKTree()
		mi := NewMultiIndex()
		for i := range hashes {
			hashes[i] = Hash(rng.Uint64())
			tr.Insert(hashes[i], int64(i))
			mi.Insert(hashes[i], int64(i))
		}
		q := perturb(rng, hashes[rng.Intn(n)], rng.Intn(5))
		radius := rng.Intn(12)
		a := tr.Radius(q, radius)
		b := mi.Radius(q, radius)
		if len(a) != len(b) {
			return false
		}
		total := func(ms []Match) int {
			n := 0
			for _, m := range ms {
				n += len(m.IDs)
			}
			return n
		}
		return total(a) == total(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

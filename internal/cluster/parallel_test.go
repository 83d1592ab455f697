package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/memes-pipeline/memes/internal/phash"
)

// randomHashes returns n hashes drawn from a few noisy templates so DBSCAN
// finds real clusters.
func randomHashes(n int, seed int64) []phash.Hash {
	rng := rand.New(rand.NewSource(seed))
	templates := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	out := make([]phash.Hash, n)
	for i := range out {
		h := templates[rng.Intn(len(templates))]
		for b := 0; b < 3; b++ {
			if rng.Intn(2) == 0 {
				h ^= 1 << uint(rng.Intn(64))
			}
		}
		out[i] = phash.Hash(h)
	}
	return out
}

func TestMedoidParallelMatchesSerial(t *testing.T) {
	hashes := randomHashes(400, 7)
	members := make([]int, 0, 300)
	for i := 0; i < 300; i++ {
		members = append(members, i)
	}
	want, ok := Medoid(hashes, members)
	if !ok {
		t.Fatal("Medoid failed")
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got, ok := MedoidParallel(hashes, members, workers)
		if !ok || got != want {
			t.Fatalf("workers=%d: MedoidParallel = %d, want %d", workers, got, want)
		}
	}
	if _, ok := MedoidParallel(hashes, nil, 4); ok {
		t.Fatal("empty members should report !ok")
	}
	if got, ok := MedoidParallel(hashes, []int{5}, 4); !ok || got != 5 {
		t.Fatal("singleton cluster should return its only member")
	}
}

func TestMaterializeParallelMatchesSerial(t *testing.T) {
	hashes := randomHashes(600, 11)
	counts := make([]int, len(hashes))
	rng := rand.New(rand.NewSource(3))
	for i := range counts {
		counts[i] = 1 + rng.Intn(5)
	}
	res, err := DBSCAN(hashes, counts, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := MaterializeParallel(hashes, counts, res, 1)
	if len(want) == 0 {
		t.Fatal("expected clusters from templated hashes")
	}
	for _, workers := range []int{0, 2, 8} {
		got := MaterializeParallel(hashes, counts, res, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: MaterializeParallel diverges from the one-worker run", workers)
		}
	}
}

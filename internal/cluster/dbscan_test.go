package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/memes-pipeline/memes/internal/phash"
)

// makeClusteredHashes builds k groups of hashes. Each group has a random base
// hash and size members within maxFlip bit flips of the base, plus extra
// isolated noise hashes. Returns hashes and the ground-truth group of each
// (noise hashes get group -1).
func makeClusteredHashes(seed int64, k, size, maxFlip, noise int) ([]phash.Hash, []int) {
	rng := rand.New(rand.NewSource(seed))
	var hashes []phash.Hash
	var truth []int
	bases := make([]phash.Hash, k)
	for g := 0; g < k; g++ {
		// Space bases far apart by construction: random 64-bit values are
		// ~32 bits apart in expectation.
		bases[g] = phash.Hash(rng.Uint64())
		for s := 0; s < size; s++ {
			h := bases[g]
			flips := rng.Intn(maxFlip + 1)
			perm := rng.Perm(64)
			for f := 0; f < flips; f++ {
				h ^= 1 << uint(perm[f])
			}
			hashes = append(hashes, h)
			truth = append(truth, g)
		}
	}
	for i := 0; i < noise; i++ {
		hashes = append(hashes, phash.Hash(rng.Uint64()))
		truth = append(truth, -1)
	}
	return hashes, truth
}

func TestDBSCANConfigValidate(t *testing.T) {
	if err := DefaultDBSCANConfig().Validate(); err != nil {
		t.Fatalf("default config should be valid: %v", err)
	}
	bad := []DBSCANConfig{
		{Eps: -1, MinPts: 5},
		{Eps: 65, MinPts: 5},
		{Eps: 8, MinPts: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestDBSCANEmpty(t *testing.T) {
	res, err := DBSCAN(nil, nil, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || res.NoiseCount != 0 || len(res.Labels) != 0 {
		t.Fatalf("unexpected result for empty input: %+v", res)
	}
	if res.NoiseFraction() != 0 {
		t.Fatal("noise fraction of empty result should be 0")
	}
}

func TestDBSCANCountsLengthMismatch(t *testing.T) {
	_, err := DBSCAN([]phash.Hash{1, 2}, []int{1}, DefaultDBSCANConfig())
	if err == nil {
		t.Fatal("expected error for mismatched counts length")
	}
}

func TestDBSCANInvalidConfig(t *testing.T) {
	_, err := DBSCAN([]phash.Hash{1}, nil, DBSCANConfig{Eps: -2, MinPts: 1})
	if err == nil {
		t.Fatal("expected error for invalid config")
	}
}

func TestDBSCANRecoversPlantedClusters(t *testing.T) {
	hashes, truth := makeClusteredHashes(1, 4, 20, 3, 10)
	res, err := DBSCAN(hashes, nil, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 4 {
		t.Fatalf("expected at least 4 clusters, got %d", res.NumClusters)
	}
	// Every planted group should map predominantly to a single label.
	for g := 0; g < 4; g++ {
		labelCount := map[int]int{}
		total := 0
		for i, tg := range truth {
			if tg != g {
				continue
			}
			labelCount[res.Labels[i]]++
			total++
		}
		best := 0
		for lbl, c := range labelCount {
			if lbl != Noise && c > best {
				best = c
			}
		}
		if float64(best)/float64(total) < 0.9 {
			t.Errorf("group %d not recovered: label distribution %v", g, labelCount)
		}
	}
}

func TestDBSCANIsolatedPointsAreNoise(t *testing.T) {
	// 10 isolated random hashes with MinPts 5: everything should be noise
	// with overwhelming probability (random 64-bit hashes are ~32 bits apart).
	rng := rand.New(rand.NewSource(3))
	hashes := make([]phash.Hash, 10)
	for i := range hashes {
		hashes[i] = phash.Hash(rng.Uint64())
	}
	res, err := DBSCAN(hashes, nil, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Fatalf("expected 0 clusters, got %d", res.NumClusters)
	}
	if res.NoiseCount != len(hashes) {
		t.Fatalf("expected all points to be noise, got %d/%d", res.NoiseCount, len(hashes))
	}
	if res.NoiseFraction() != 1 {
		t.Fatalf("noise fraction should be 1, got %f", res.NoiseFraction())
	}
}

func TestDBSCANCountsActAsDensityWeight(t *testing.T) {
	// Two identical hashes with occurrence counts of 10 each: even though
	// there are only 2 distinct points, their total weight exceeds MinPts so
	// they must form a cluster.
	hashes := []phash.Hash{0xABCD, 0xABCD ^ 1}
	counts := []int{10, 10}
	res, err := DBSCAN(hashes, counts, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("expected 1 cluster, got %d", res.NumClusters)
	}
	// Without counts the same input is noise.
	res2, err := DBSCAN(hashes, nil, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumClusters != 0 {
		t.Fatalf("expected 0 clusters without counts, got %d", res2.NumClusters)
	}
}

func TestDBSCANLowerEpsMoreNoise(t *testing.T) {
	// Mirrors Appendix A: smaller eps yields at least as much noise.
	hashes, _ := makeClusteredHashes(11, 5, 15, 6, 20)
	frac := func(eps int) float64 {
		res, err := DBSCAN(hashes, nil, DBSCANConfig{Eps: eps, MinPts: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.NoiseFraction()
	}
	f2, f8 := frac(2), frac(8)
	if f2 < f8 {
		t.Fatalf("noise at eps=2 (%f) should be >= noise at eps=8 (%f)", f2, f8)
	}
}

func TestDBSCANLabelsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		hashes, _ := makeClusteredHashes(seed, 3, 10, 4, 5)
		res, err := DBSCAN(hashes, nil, DefaultDBSCANConfig())
		if err != nil {
			return false
		}
		if len(res.Labels) != len(hashes) {
			return false
		}
		seen := map[int]bool{}
		noise := 0
		for _, lbl := range res.Labels {
			if lbl == Noise {
				noise++
				continue
			}
			if lbl < 0 || lbl >= res.NumClusters {
				return false
			}
			seen[lbl] = true
		}
		// Every label in [0, NumClusters) must be used and noise count match.
		return len(seen) == res.NumClusters && noise == res.NoiseCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMembersPartitionsNonNoisePoints(t *testing.T) {
	hashes, _ := makeClusteredHashes(21, 3, 12, 3, 8)
	res, err := DBSCAN(hashes, nil, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	members := res.Members()
	count := 0
	seen := map[int]bool{}
	for lbl, m := range members {
		for _, i := range m {
			if res.Labels[i] != lbl {
				t.Fatalf("member %d assigned to wrong cluster", i)
			}
			if seen[i] {
				t.Fatalf("member %d appears in two clusters", i)
			}
			seen[i] = true
			count++
		}
	}
	if count != len(hashes)-res.NoiseCount {
		t.Fatalf("members cover %d points, want %d", count, len(hashes)-res.NoiseCount)
	}
}

func TestMedoid(t *testing.T) {
	// The medoid of {0b0000, 0b0001, 0b0011, 0b0111} under squared Hamming
	// cost: compute by hand. Distances from 0b0001: 1,0,1,2 -> cost 1+0+1+4=6,
	// which is minimal.
	hashes := []phash.Hash{0b0000, 0b0001, 0b0011, 0b0111}
	members := []int{0, 1, 2, 3}
	m, ok := Medoid(hashes, members)
	if !ok {
		t.Fatal("Medoid returned not ok")
	}
	if m != 1 {
		t.Fatalf("medoid = %d, want 1", m)
	}
}

func TestMedoidEdgeCases(t *testing.T) {
	if _, ok := Medoid(nil, nil); ok {
		t.Fatal("empty members should return not ok")
	}
	hashes := []phash.Hash{42}
	if m, ok := Medoid(hashes, []int{0}); !ok || m != 0 {
		t.Fatal("single member should be its own medoid")
	}
}

func TestMedoidMinimizesCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		hashes := make([]phash.Hash, n)
		members := make([]int, n)
		for i := range hashes {
			hashes[i] = phash.Hash(rng.Uint64())
			members[i] = i
		}
		m, ok := Medoid(hashes, members)
		if !ok {
			return false
		}
		cost := func(c int) int64 {
			var s int64
			for _, j := range members {
				d := int64(phash.Distance(hashes[c], hashes[j]))
				s += d * d
			}
			return s
		}
		mc := cost(m)
		for _, c := range members {
			if cost(c) < mc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterialize(t *testing.T) {
	hashes, _ := makeClusteredHashes(31, 3, 10, 3, 5)
	counts := make([]int, len(hashes))
	for i := range counts {
		counts[i] = 1 + i%3
	}
	res, err := DBSCAN(hashes, counts, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusters := MaterializeParallel(hashes, counts, res, 1)
	if len(clusters) != res.NumClusters {
		t.Fatalf("materialized %d clusters, want %d", len(clusters), res.NumClusters)
	}
	for _, c := range clusters {
		if len(c.Members) == 0 {
			t.Fatal("cluster with no members")
		}
		if c.MedoidHash != hashes[c.Medoid] {
			t.Fatal("medoid hash mismatch")
		}
		wantSize := 0
		for _, i := range c.Members {
			wantSize += counts[i]
			if res.Labels[i] != c.Label {
				t.Fatal("member label mismatch")
			}
		}
		if c.Size != wantSize {
			t.Fatalf("cluster size %d, want %d", c.Size, wantSize)
		}
	}
}

func TestMaterializeUnitWeights(t *testing.T) {
	hashes, _ := makeClusteredHashes(41, 2, 8, 2, 0)
	res, err := DBSCAN(hashes, nil, DefaultDBSCANConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusters := MaterializeParallel(hashes, nil, res, 1)
	for _, c := range clusters {
		if c.Size != len(c.Members) {
			t.Fatalf("unit-weight cluster size %d != member count %d", c.Size, len(c.Members))
		}
	}
}

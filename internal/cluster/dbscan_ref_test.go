package cluster

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/memes-pipeline/memes/internal/phash"
)

// dbscanReference is the historical single-threaded DBSCAN: a fresh Radius
// query per visited point, with neighbourhoods re-queried during expansion.
// The two-phase parallel implementation must reproduce its labels bit for
// bit — this is the old-vs-new oracle for the property test and the fuzz
// target below.
func dbscanReference(hashes []phash.Hash, counts []int, cfg DBSCANConfig) Result {
	n := len(hashes)
	res := Result{Labels: make([]int, n)}
	if n == 0 {
		return res
	}
	weight := func(i int) int {
		if counts == nil {
			return 1
		}
		return counts[i]
	}
	index := phash.NewMultiIndex()
	for i, h := range hashes {
		index.Insert(h, int64(i))
	}
	index.Seal()
	const unvisited = -2
	labels := res.Labels
	for i := range labels {
		labels[i] = unvisited
	}
	neighbours := func(i int) ([]int, int) {
		matches := index.Radius(hashes[i], cfg.Eps)
		var idxs []int
		total := 0
		for _, m := range matches {
			for _, id := range m.IDs {
				idxs = append(idxs, int(id))
				total += weight(int(id))
			}
		}
		return idxs, total
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		neigh, total := neighbours(i)
		if total < cfg.MinPts {
			labels[i] = Noise
			continue
		}
		labels[i] = clusterID
		queue := append([]int(nil), neigh...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = clusterID
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = clusterID
			jNeigh, jTotal := neighbours(j)
			if jTotal >= cfg.MinPts {
				queue = append(queue, jNeigh...)
			}
		}
		clusterID++
	}
	res.NumClusters = clusterID
	for _, lbl := range labels {
		if lbl == Noise {
			res.NoiseCount++
		}
	}
	return res
}

func assertSameClustering(t *testing.T, got Result, want Result, label string) {
	t.Helper()
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: %d labels, want %d", label, len(got.Labels), len(want.Labels))
	}
	for i := range got.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", label, i, got.Labels[i], want.Labels[i])
		}
	}
	if got.NumClusters != want.NumClusters || got.NoiseCount != want.NoiseCount {
		t.Fatalf("%s: (clusters=%d noise=%d), want (clusters=%d noise=%d)",
			label, got.NumClusters, got.NoiseCount, want.NumClusters, want.NoiseCount)
	}
}

// TestDBSCANMatchesReferenceAcrossWorkers is the tentpole determinism
// property: over random corpora with random counts, eps, and minPts, the
// two-phase implementation is bitwise-identical to the historical
// re-querying implementation for every worker count.
func TestDBSCANMatchesReferenceAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(5)
		size := 5 + rng.Intn(25)
		maxFlip := 1 + rng.Intn(6)
		noise := rng.Intn(20)
		hashes, _ := makeClusteredHashes(rng.Int63(), k, size, maxFlip, noise)
		var counts []int
		if rng.Intn(2) == 0 {
			counts = make([]int, len(hashes))
			for i := range counts {
				counts[i] = 1 + rng.Intn(4)
			}
		}
		cfg := DBSCANConfig{Eps: 1 + rng.Intn(12), MinPts: 1 + rng.Intn(6)}
		want := dbscanReference(hashes, counts, cfg)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			cfg.Workers = workers
			got, err := DBSCAN(hashes, counts, cfg)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			assertSameClustering(t, got, want, "trial/workers")
			if got.Neighbourhoods.Points != len(hashes) {
				t.Fatalf("trial %d workers %d: neighbourhood points %d, want %d",
					trial, workers, got.Neighbourhoods.Points, len(hashes))
			}
		}
	}
}

// FuzzDBSCANEquivalence fuzzes hashes, counts, and the whole configuration
// space (eps, minPts, workers) against the historical implementation.
func FuzzDBSCANEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(5), uint8(4), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(int64(7), uint8(2), uint8(1), uint8(0), []byte{})
	f.Add(int64(42), uint8(64), uint8(3), uint8(7), []byte("\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, seed int64, eps, minPts, workers uint8, data []byte) {
		cfg := DBSCANConfig{
			Eps:     int(eps) % (phash.MaxDistance + 1),
			MinPts:  1 + int(minPts)%8,
			Workers: int(workers) % 9,
		}
		var hashes []phash.Hash
		for len(data) >= 8 {
			hashes = append(hashes, phash.Hash(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		// Pad with clustered hashes so density structure exists even for
		// tiny fuzz inputs.
		rng := rand.New(rand.NewSource(seed))
		extra, _ := makeClusteredHashes(seed, 1+rng.Intn(3), 4+rng.Intn(8), 3, rng.Intn(4))
		hashes = append(hashes, extra...)
		var counts []int
		if rng.Intn(2) == 0 {
			counts = make([]int, len(hashes))
			for i := range counts {
				counts[i] = 1 + rng.Intn(3)
			}
		}
		want := dbscanReference(hashes, counts, cfg)
		got, err := DBSCAN(hashes, counts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameClustering(t, got, want, "fuzz")
	})
}

package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// lineDist returns a distance function over points on a line.
func lineDist(points []float64) func(i, j int) float64 {
	return func(i, j int) float64 { return math.Abs(points[i] - points[j]) }
}

func TestAgglomerativeErrors(t *testing.T) {
	if _, err := Agglomerative(0, nil, AverageLinkage); err == nil {
		t.Fatal("expected error for zero items")
	}
	_, err := Agglomerative(2, func(i, j int) float64 { return math.NaN() }, AverageLinkage)
	if err == nil {
		t.Fatal("expected error for NaN distance")
	}
	_, err = Agglomerative(2, func(i, j int) float64 { return -1 }, AverageLinkage)
	if err == nil {
		t.Fatal("expected error for negative distance")
	}
}

func TestAgglomerativeSingleItem(t *testing.T) {
	d, err := Agglomerative(1, func(i, j int) float64 { return 0 }, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != 0 || d.NumLeaves() != 1 {
		t.Fatalf("unexpected single-item dendrogram: %+v", d)
	}
	labels := d.Cut(0.5)
	if len(labels) != 1 || labels[0] != 0 {
		t.Fatalf("unexpected cut labels %v", labels)
	}
}

func TestAgglomerativeTwoGroups(t *testing.T) {
	// Two tight groups far apart on a line.
	points := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	d, err := Agglomerative(len(points), lineDist(points), AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumLeaves() != len(points) {
		t.Fatalf("NumLeaves = %d, want %d", d.NumLeaves(), len(points))
	}
	// Cutting at height 1 must yield exactly two clusters separating the
	// groups.
	labels := d.Cut(1.0)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("first group split: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatalf("second group split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Fatalf("groups merged: %v", labels)
	}
	// Cutting above the maximum merge height yields one cluster.
	all := d.Cut(100)
	for _, l := range all {
		if l != all[0] {
			t.Fatalf("cut above max height should give one cluster: %v", all)
		}
	}
	// Cutting at height 0 yields n singleton clusters.
	single := d.Cut(0)
	seen := map[int]bool{}
	for _, l := range single {
		if seen[l] {
			t.Fatalf("cut at 0 should give singletons: %v", single)
		}
		seen[l] = true
	}
}

func TestAgglomerativeRootCoversAllLeaves(t *testing.T) {
	points := []float64{1, 2, 3, 7, 8, 9, 20}
	d, err := Agglomerative(len(points), lineDist(points), AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	leaves := d.Leaves(d.Root)
	if len(leaves) != len(points) {
		t.Fatalf("root covers %d leaves, want %d", len(leaves), len(points))
	}
	seen := map[int]bool{}
	for _, l := range leaves {
		if seen[l] {
			t.Fatalf("duplicate leaf %d", l)
		}
		seen[l] = true
	}
	if d.Nodes[d.Root].Count != len(points) {
		t.Fatalf("root count %d, want %d", d.Nodes[d.Root].Count, len(points))
	}
}

func TestAgglomerativeMergeHeightsMonotoneForSingleLinkage(t *testing.T) {
	// Single-linkage merge heights are non-decreasing in merge order.
	rng := rand.New(rand.NewSource(5))
	points := make([]float64, 12)
	for i := range points {
		points[i] = rng.Float64() * 100
	}
	d, err := Agglomerative(len(points), lineDist(points), SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	var heights []float64 // internal nodes in merge order
	for _, node := range d.Nodes {
		if node.Item < 0 {
			heights = append(heights, node.Height)
		}
	}
	for i := 1; i < len(heights); i++ {
		if heights[i] < heights[i-1]-1e-9 {
			t.Fatalf("single-linkage heights not monotone: %v", heights)
		}
	}
}

func TestLinkageVariantsOrdering(t *testing.T) {
	// For the same data, complete linkage merge heights dominate average,
	// which dominates single, at the final merge.
	points := []float64{0, 1, 2, 10, 11, 12}
	final := func(l Linkage) float64 {
		d, err := Agglomerative(len(points), lineDist(points), l)
		if err != nil {
			t.Fatal(err)
		}
		return d.Nodes[d.Root].Height
	}
	s, a, c := final(SingleLinkage), final(AverageLinkage), final(CompleteLinkage)
	if !(s <= a && a <= c) {
		t.Fatalf("expected single <= average <= complete, got %v %v %v", s, a, c)
	}
}

func TestLinkageString(t *testing.T) {
	if AverageLinkage.String() != "average" || SingleLinkage.String() != "single" ||
		CompleteLinkage.String() != "complete" {
		t.Fatal("unexpected linkage names")
	}
	if Linkage(99).String() == "" {
		t.Fatal("unknown linkage should still stringify")
	}
}

func TestCutConsistentWithLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := make([]float64, 15)
	for i := range points {
		points[i] = rng.Float64() * 50
	}
	d, err := Agglomerative(len(points), lineDist(points), AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels := d.Cut(5)
	if len(labels) != len(points) {
		t.Fatalf("labels length %d, want %d", len(labels), len(points))
	}
	// Number of distinct labels must be between 1 and n.
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) < 1 || len(distinct) > len(points) {
		t.Fatalf("implausible cluster count %d", len(distinct))
	}
}

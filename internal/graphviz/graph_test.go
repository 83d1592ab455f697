package graphviz

import (
	"encoding/json"
	"math"
	"testing"
)

// twoClusterMatrix builds a 6-node distance matrix with two tight groups
// (0,1,2) and (3,4,5) that are far from each other.
func twoClusterMatrix() ([][]float64, []string, []string) {
	n := 6
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	set := func(i, j int, v float64) { d[i][j] = v; d[j][i] = v }
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			set(i, j, 0.1)
		}
	}
	for i := 3; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			set(i, j, 0.2)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			set(i, j, 0.9)
		}
	}
	labels := []string{"pepe", "pepe", "pepe", "merchant", "merchant", "merchant"}
	groups := []string{"pepe", "pepe", "pepe", "merchant", "merchant", "merchant"}
	return d, labels, groups
}

func TestBuildValidation(t *testing.T) {
	d, labels, groups := twoClusterMatrix()
	if _, err := Build(nil, nil, nil, nil, 0.5); err == nil {
		t.Fatal("empty matrix should be rejected")
	}
	if _, err := Build(d, labels[:2], groups, nil, 0.5); err == nil {
		t.Fatal("short labels should be rejected")
	}
	if _, err := Build(d, labels, groups, []int{1}, 0.5); err == nil {
		t.Fatal("short sizes should be rejected")
	}
	if _, err := Build(d, labels, groups, nil, 1.5); err == nil {
		t.Fatal("kappa > 1 should be rejected")
	}
	ragged := [][]float64{{0, 0.1}, {0.1}}
	if _, err := Build(ragged, []string{"a", "b"}, []string{"a", "b"}, nil, 0.5); err == nil {
		t.Fatal("ragged matrix should be rejected")
	}
}

func TestBuildEdgesRespectKappa(t *testing.T) {
	d, labels, groups := twoClusterMatrix()
	g, err := Build(d, labels, groups, nil, DefaultKappa)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 6 {
		t.Fatalf("node count %d", len(g.Nodes))
	}
	// Within-group pairs: 3 + 3 = 6 edges; across groups none.
	if len(g.Edges) != 6 {
		t.Fatalf("edge count %d, want 6", len(g.Edges))
	}
	for _, e := range g.Edges {
		if (e.From < 3) != (e.To < 3) {
			t.Fatalf("cross-group edge %+v should not exist at kappa=%v", e, DefaultKappa)
		}
		if e.Weight <= 0 || e.Weight > 1 {
			t.Fatalf("edge weight out of range: %v", e.Weight)
		}
	}
}

func TestDegreesAndFilter(t *testing.T) {
	d, labels, groups := twoClusterMatrix()
	g, err := Build(d, labels, groups, []int{5, 5, 5, 2, 2, 2}, DefaultKappa)
	if err != nil {
		t.Fatal(err)
	}
	deg := g.Degrees()
	for i, dg := range deg {
		if dg != 2 {
			t.Fatalf("node %d degree %d, want 2", i, dg)
		}
	}
	// Filtering at min degree 3 removes everything; at 2 keeps everything.
	if got := g.FilterByDegree(3); len(got.Nodes) != 0 {
		t.Fatalf("filter(3) kept %d nodes", len(got.Nodes))
	}
	kept := g.FilterByDegree(2)
	if len(kept.Nodes) != 6 || len(kept.Edges) != 6 {
		t.Fatalf("filter(2) kept %d nodes %d edges", len(kept.Nodes), len(kept.Edges))
	}
	// Node IDs must be re-indexed densely.
	for i, n := range kept.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d after filtering", i, n.ID)
		}
	}
}

func TestConnectedComponentsAndPurity(t *testing.T) {
	d, labels, groups := twoClusterMatrix()
	g, err := Build(d, labels, groups, nil, DefaultKappa)
	if err != nil {
		t.Fatal(err)
	}
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("component count %d, want 2", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 3 {
		t.Fatalf("component sizes %d/%d", len(comps[0]), len(comps[1]))
	}
	purity := g.ComponentPurity()
	for _, p := range purity {
		if p != 1 {
			t.Fatalf("component purity %v, want 1 (monochrome components)", p)
		}
	}
}

func TestLayoutSeparatesComponents(t *testing.T) {
	d, labels, groups := twoClusterMatrix()
	g, err := Build(d, labels, groups, nil, DefaultKappa)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLayoutConfig()
	cfg.Iterations = 150
	if err := g.Layout(cfg); err != nil {
		t.Fatal(err)
	}
	// All coordinates must be inside the frame.
	for _, n := range g.Nodes {
		if n.X < 0 || n.X > cfg.Width || n.Y < 0 || n.Y > cfg.Height {
			t.Fatalf("node %d outside frame: (%v,%v)", n.ID, n.X, n.Y)
		}
	}
	// Mean within-group distance should be smaller than between-group
	// distance after layout.
	distXY := func(a, b Node) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }
	var within, between float64
	var nw, nb int
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			dd := distXY(g.Nodes[i], g.Nodes[j])
			if (i < 3) == (j < 3) {
				within += dd
				nw++
			} else {
				between += dd
				nb++
			}
		}
	}
	if within/float64(nw) >= between/float64(nb) {
		t.Fatalf("layout did not separate groups: within %v vs between %v",
			within/float64(nw), between/float64(nb))
	}
}

func TestLayoutValidation(t *testing.T) {
	g := &Graph{}
	if err := g.Layout(DefaultLayoutConfig()); err == nil {
		t.Fatal("empty graph layout should fail")
	}
	d, labels, groups := twoClusterMatrix()
	g2, _ := Build(d, labels, groups, nil, 0.5)
	if err := g2.Layout(LayoutConfig{Iterations: 0, Width: 10, Height: 10}); err == nil {
		t.Fatal("zero iterations should fail")
	}
}

func TestJSONExport(t *testing.T) {
	d, labels, groups := twoClusterMatrix()
	g, err := Build(d, labels, groups, nil, DefaultKappa)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Nodes []Node `json:"nodes"`
		Edges []Edge `json:"edges"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("JSON round trip failed: %v", err)
	}
	if len(decoded.Nodes) != 6 || len(decoded.Edges) != 6 {
		t.Fatalf("JSON content wrong: %d nodes %d edges", len(decoded.Nodes), len(decoded.Edges))
	}
}

// Package graphviz builds and lays out the cluster graph of Figure 7: nodes
// are the medoids of annotated clusters, edges connect clusters whose custom
// distance falls below a threshold kappa, low-degree nodes are filtered out,
// and the remaining graph is laid out with a force-directed algorithm
// (standing in for the OpenOrd layout used by the paper) and exported as JSON
// for inspection.
package graphviz

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Node is a cluster in the visualisation graph.
type Node struct {
	// ID is the node's index in the graph.
	ID int
	// Label is the cluster's representative annotation (KYM entry name).
	Label string
	// Group is the colour group; the paper colours nodes by their annotation.
	Group string
	// Size is a display weight, e.g. the number of images in the cluster.
	Size int
	// X, Y are layout coordinates, populated by Layout.
	X, Y float64
}

// Edge connects two clusters whose distance is below the graph threshold.
type Edge struct {
	From, To int
	// Weight is 1 - distance, so heavier edges are more similar.
	Weight float64
}

// Graph is an undirected graph over annotated clusters.
type Graph struct {
	Nodes []Node
	Edges []Edge
}

// DefaultKappa is the distance threshold used for Figure 7.
const DefaultKappa = 0.45

// Build constructs a graph from a pairwise distance matrix. labels and
// groups give the display label and colour group of each node; sizes may be
// nil. An edge is added for every pair with distance <= kappa.
func Build(dist [][]float64, labels, groups []string, sizes []int, kappa float64) (*Graph, error) {
	n := len(dist)
	if n == 0 {
		return nil, errors.New("graphviz: empty distance matrix")
	}
	if len(labels) != n || len(groups) != n {
		return nil, fmt.Errorf("graphviz: labels (%d) and groups (%d) must match matrix size %d",
			len(labels), len(groups), n)
	}
	if sizes != nil && len(sizes) != n {
		return nil, fmt.Errorf("graphviz: sizes length %d must match matrix size %d", len(sizes), n)
	}
	if kappa < 0 || kappa > 1 {
		return nil, fmt.Errorf("graphviz: kappa %v outside [0,1]", kappa)
	}
	g := &Graph{Nodes: make([]Node, n)}
	for i := 0; i < n; i++ {
		size := 1
		if sizes != nil {
			size = sizes[i]
		}
		g.Nodes[i] = Node{ID: i, Label: labels[i], Group: groups[i], Size: size}
	}
	for i := 0; i < n; i++ {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("graphviz: distance matrix row %d has length %d, want %d", i, len(dist[i]), n)
		}
		for j := i + 1; j < n; j++ {
			if dist[i][j] <= kappa {
				g.Edges = append(g.Edges, Edge{From: i, To: j, Weight: 1 - dist[i][j]})
			}
		}
	}
	return g, nil
}

// Degrees returns the degree of every node.
func (g *Graph) Degrees() []int {
	deg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		deg[e.From]++
		deg[e.To]++
	}
	return deg
}

// FilterByDegree returns a new graph containing only nodes whose total
// degree is at least minDegree, re-indexed densely, and the edges among
// them. The paper filters Figure 7 to nodes with degree >= 10.
func (g *Graph) FilterByDegree(minDegree int) *Graph {
	deg := g.Degrees()
	remap := make(map[int]int)
	out := &Graph{}
	for i, n := range g.Nodes {
		if deg[i] >= minDegree {
			remap[i] = len(out.Nodes)
			n.ID = len(out.Nodes)
			out.Nodes = append(out.Nodes, n)
		}
	}
	for _, e := range g.Edges {
		f, okF := remap[e.From]
		t, okT := remap[e.To]
		if okF && okT {
			out.Edges = append(out.Edges, Edge{From: f, To: t, Weight: e.Weight})
		}
	}
	return out
}

// ConnectedComponents returns the node indexes of each connected component,
// largest first.
func (g *Graph) ConnectedComponents() [][]int {
	n := len(g.Nodes)
	adj := make([][]int, n)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, n)
	var comps [][]int
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// ComponentPurity returns, for each connected component with at least two
// nodes, the fraction of its nodes sharing the component's most common
// group. Figure 7's qualitative claim is that components are dominated by a
// single meme (group), i.e. purity is high.
func (g *Graph) ComponentPurity() []float64 {
	var out []float64
	for _, comp := range g.ConnectedComponents() {
		if len(comp) < 2 {
			continue
		}
		counts := map[string]int{}
		for _, v := range comp {
			counts[g.Nodes[v].Group]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		out = append(out, float64(max)/float64(len(comp)))
	}
	return out
}

// LayoutConfig controls the force-directed layout.
type LayoutConfig struct {
	// Iterations is the number of relaxation rounds.
	Iterations int
	// Width and Height bound the layout area.
	Width, Height float64
	// Seed makes the initial placement deterministic.
	Seed int64
}

// DefaultLayoutConfig returns a layout configuration adequate for graphs of
// a few thousand nodes.
func DefaultLayoutConfig() LayoutConfig {
	return LayoutConfig{Iterations: 100, Width: 1000, Height: 1000, Seed: 1}
}

// Layout computes node positions with a Fruchterman-Reingold force-directed
// layout and stores them in the graph's nodes.
func (g *Graph) Layout(cfg LayoutConfig) error {
	n := len(g.Nodes)
	if n == 0 {
		return errors.New("graphviz: cannot lay out an empty graph")
	}
	if cfg.Iterations <= 0 || cfg.Width <= 0 || cfg.Height <= 0 {
		return errors.New("graphviz: invalid layout configuration")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range g.Nodes {
		g.Nodes[i].X = rng.Float64() * cfg.Width
		g.Nodes[i].Y = rng.Float64() * cfg.Height
	}
	area := cfg.Width * cfg.Height
	k := math.Sqrt(area / float64(n))
	temp := cfg.Width / 10

	dispX := make([]float64, n)
	dispY := make([]float64, n)
	for iter := 0; iter < cfg.Iterations; iter++ {
		for i := range dispX {
			dispX[i], dispY[i] = 0, 0
		}
		// Repulsive forces between all pairs.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := g.Nodes[i].X - g.Nodes[j].X
				dy := g.Nodes[i].Y - g.Nodes[j].Y
				d := math.Hypot(dx, dy)
				if d < 1e-9 {
					d = 1e-9
					dx = rng.Float64()*2 - 1
					dy = rng.Float64()*2 - 1
				}
				force := k * k / d
				dispX[i] += dx / d * force
				dispY[i] += dy / d * force
				dispX[j] -= dx / d * force
				dispY[j] -= dy / d * force
			}
		}
		// Attractive forces along edges.
		for _, e := range g.Edges {
			dx := g.Nodes[e.From].X - g.Nodes[e.To].X
			dy := g.Nodes[e.From].Y - g.Nodes[e.To].Y
			d := math.Hypot(dx, dy)
			if d < 1e-9 {
				continue
			}
			force := d * d / k * e.Weight
			dispX[e.From] -= dx / d * force
			dispY[e.From] -= dy / d * force
			dispX[e.To] += dx / d * force
			dispY[e.To] += dy / d * force
		}
		// Apply displacements limited by temperature, clamp to the frame.
		for i := range g.Nodes {
			d := math.Hypot(dispX[i], dispY[i])
			if d < 1e-9 {
				continue
			}
			limited := math.Min(d, temp)
			g.Nodes[i].X += dispX[i] / d * limited
			g.Nodes[i].Y += dispY[i] / d * limited
			g.Nodes[i].X = math.Max(0, math.Min(cfg.Width, g.Nodes[i].X))
			g.Nodes[i].Y = math.Max(0, math.Min(cfg.Height, g.Nodes[i].Y))
		}
		temp *= 0.95
	}
	return nil
}

// JSON renders the graph as a JSON document with "nodes" and "edges" arrays,
// the format consumed by common web-based graph viewers.
func (g *Graph) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Nodes []Node `json:"nodes"`
		Edges []Edge `json:"edges"`
	}{Nodes: g.Nodes, Edges: g.Edges}, "", "  ")
}

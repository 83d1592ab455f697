package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Linkage selects how the distance between two groups of points is derived
// from pairwise point distances during agglomerative clustering.
type Linkage int

const (
	// AverageLinkage uses the mean pairwise distance (UPGMA). This is the
	// linkage used for the dendrogram in Figure 6.
	AverageLinkage Linkage = iota
	// SingleLinkage uses the minimum pairwise distance.
	SingleLinkage
	// CompleteLinkage uses the maximum pairwise distance.
	CompleteLinkage
)

func (l Linkage) String() string {
	switch l {
	case AverageLinkage:
		return "average"
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// DendrogramNode is a node of the binary merge tree produced by
// agglomerative clustering. Leaves have Left == Right == -1 and refer to the
// original item via Item; internal nodes record the merge height.
type DendrogramNode struct {
	// ID is the node index in Dendrogram.Nodes. Leaves occupy [0, n) and
	// internal nodes [n, 2n-1).
	ID int
	// Item is the original item index for leaves, -1 for internal nodes.
	Item int
	// Left and Right are child node IDs, -1 for leaves.
	Left, Right int
	// Height is the linkage distance at which the children were merged;
	// 0 for leaves.
	Height float64
	// Count is the number of leaves under this node.
	Count int
}

// Dendrogram is the full merge tree of an agglomerative clustering run.
type Dendrogram struct {
	Nodes []DendrogramNode
	// Root is the ID of the root node (or -1 when there are no items).
	Root int
}

var errNoItems = errors.New("cluster: agglomerative clustering requires at least one item")

// Agglomerative performs hierarchical agglomerative clustering over n items
// whose pairwise distances are given by dist(i, j). The distance function
// must be symmetric and non-negative. It returns the full dendrogram.
//
// The implementation is the O(n^3) textbook algorithm with a cached distance
// matrix, which is ample for the paper's use case (hundreds of annotated
// clusters per meme family).
func Agglomerative(n int, dist func(i, j int) float64, linkage Linkage) (*Dendrogram, error) {
	if n <= 0 {
		return nil, errNoItems
	}
	d := &Dendrogram{Root: -1}
	d.Nodes = make([]DendrogramNode, n, 2*n-1)
	for i := 0; i < n; i++ {
		d.Nodes[i] = DendrogramNode{ID: i, Item: i, Left: -1, Right: -1, Count: 1}
	}
	if n == 1 {
		d.Root = 0
		return d, nil
	}

	// active maps current cluster IDs to the set of leaf items they contain.
	active := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		active[i] = []int{i}
	}

	// Cache raw pairwise distances between leaves.
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if math.IsNaN(v) || v < 0 {
				return nil, fmt.Errorf("cluster: invalid distance %v between items %d and %d", v, i, j)
			}
			raw[i][j] = v
			raw[j][i] = v
		}
	}

	groupDist := func(a, b []int) float64 {
		switch linkage {
		case SingleLinkage:
			best := math.Inf(1)
			for _, i := range a {
				for _, j := range b {
					if raw[i][j] < best {
						best = raw[i][j]
					}
				}
			}
			return best
		case CompleteLinkage:
			best := 0.0
			for _, i := range a {
				for _, j := range b {
					if raw[i][j] > best {
						best = raw[i][j]
					}
				}
			}
			return best
		default: // AverageLinkage
			sum := 0.0
			for _, i := range a {
				for _, j := range b {
					sum += raw[i][j]
				}
			}
			return sum / float64(len(a)*len(b))
		}
	}

	nextID := n
	for len(active) > 1 {
		// Find the closest pair of active clusters (deterministic order).
		ids := make([]int, 0, len(active))
		for id := range active {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		bestA, bestB := -1, -1
		bestD := math.Inf(1)
		for ai := 0; ai < len(ids); ai++ {
			for bi := ai + 1; bi < len(ids); bi++ {
				dd := groupDist(active[ids[ai]], active[ids[bi]])
				if dd < bestD {
					bestD = dd
					bestA, bestB = ids[ai], ids[bi]
				}
			}
		}
		merged := append(append([]int(nil), active[bestA]...), active[bestB]...)
		node := DendrogramNode{
			ID:     nextID,
			Item:   -1,
			Left:   bestA,
			Right:  bestB,
			Height: bestD,
			Count:  len(merged),
		}
		d.Nodes = append(d.Nodes, node)
		delete(active, bestA)
		delete(active, bestB)
		active[nextID] = merged
		nextID++
	}
	d.Root = nextID - 1
	return d, nil
}

// Cut returns a flat clustering obtained by cutting the dendrogram at the
// given height: every maximal subtree whose merge height is at most height
// becomes one cluster. The result maps each original item index to a cluster
// label in [0, k).
func (d *Dendrogram) Cut(height float64) []int {
	nLeaves := 0
	for _, node := range d.Nodes {
		if node.Item >= 0 {
			nLeaves++
		}
	}
	labels := make([]int, nLeaves)
	if d.Root < 0 {
		return labels
	}
	next := 0
	var assign func(id int, label int)
	assign = func(id, label int) {
		node := d.Nodes[id]
		if node.Item >= 0 {
			labels[node.Item] = label
			return
		}
		assign(node.Left, label)
		assign(node.Right, label)
	}
	var walk func(id int)
	walk = func(id int) {
		node := d.Nodes[id]
		if node.Item >= 0 || node.Height <= height {
			assign(id, next)
			next++
			return
		}
		walk(node.Left)
		walk(node.Right)
	}
	walk(d.Root)
	return labels
}

// Leaves returns the original item indexes under node id in left-to-right
// order, which is the ordering used when rendering the dendrogram.
func (d *Dendrogram) Leaves(id int) []int {
	var out []int
	var walk func(id int)
	walk = func(id int) {
		node := d.Nodes[id]
		if node.Item >= 0 {
			out = append(out, node.Item)
			return
		}
		walk(node.Left)
		walk(node.Right)
	}
	if id >= 0 && id < len(d.Nodes) {
		walk(id)
	}
	return out
}

// NumLeaves returns the number of original items in the dendrogram.
func (d *Dendrogram) NumLeaves() int {
	n := 0
	for _, node := range d.Nodes {
		if node.Item >= 0 {
			n++
		}
	}
	return n
}

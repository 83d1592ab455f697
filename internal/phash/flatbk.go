package phash

import "fmt"

// FlatBK is the sealed, pointer-free form of a BKTree: the same metric tree
// compiled into contiguous arrays so a query touches cache lines instead of
// chasing pointers, and so the whole index can be serialised verbatim into a
// snapshot and decoded back at load — loaded, not rebuilt.
//
// Nodes are numbered in breadth-first order with each node's children kept
// contiguous and in insertion order, which makes two things true at once:
// the children of node i are exactly the index range
// [childStart[i], childStart[i+1]), and a stack traversal that pushes that
// range in order visits nodes in the same sequence as the pointer tree's
// insertion-ordered child slices — so Radius result order is bitwise
// identical to the unsealed tree (the detorder invariant survives sealing).
//
// A FlatBK is immutable; concurrent queries are safe.
type FlatBK struct {
	hashes     []Hash   // node hashes, BFS order; hashes[0] is the root
	childStart []uint32 // len(hashes)+1; children of node i are nodes [childStart[i], childStart[i+1])
	dists      []uint8  // dists[j] = Hamming distance of node j from its parent; dists[0] is unused
	idStart    []uint32 // len(hashes)+1; IDs of node i are ids[idStart[i]:idStart[i+1]]
	ids        []int64  // one entry per inserted (hash, id) pair, grouped by node
}

// Scratch is caller-owned query state for the zero-allocation radius path:
// the candidate stack (FlatBK), the hit buffer (MultiIndex) and the result
// buffer all live here and are reused across queries, so the steady state
// allocates nothing. A zero Scratch is ready to use; pool it (one per
// goroutine) for concurrent query paths.
type Scratch struct {
	stack []uint32
	slots []int32
	out   []Match
}

// Reset truncates the result buffer, keeping its capacity for reuse.
func (s *Scratch) Reset() { s.out = s.out[:0] }

// Out returns the accumulated matches; valid until the next Reset.
func (s *Scratch) Out() []Match { return s.out }

// compileFlat builds the flat form from a pointer tree by breadth-first
// numbering. size is the total (hash, id) pair count, pre-sizing the arena.
func compileFlat(root *bkNode, keys, size int) *FlatBK {
	f := &FlatBK{
		hashes:     make([]Hash, 0, keys),
		childStart: make([]uint32, 1, keys+1),
		dists:      make([]uint8, 0, keys),
		idStart:    make([]uint32, 1, keys+1),
		ids:        make([]int64, 0, size),
	}
	if root == nil {
		return f
	}
	f.childStart[0] = 1
	queue := make([]*bkNode, 0, keys)
	queue = append(queue, root)
	f.hashes = append(f.hashes, root.hash)
	f.dists = append(f.dists, 0)
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		f.ids = append(f.ids, n.ids...)
		f.idStart = append(f.idStart, uint32(len(f.ids)))
		for _, c := range n.children {
			queue = append(queue, c.node)
			f.hashes = append(f.hashes, c.node.hash)
			f.dists = append(f.dists, uint8(c.dist))
		}
		f.childStart = append(f.childStart, uint32(len(queue)))
	}
	return f
}

// NewFlatBK reconstitutes a flat tree from its serialised arrays (the
// snapshot load path), validating the structural invariants so a malformed
// file cannot drive a query out of bounds: consistent array lengths,
// monotone child/ID spans that partition the node and ID ranges, child
// indices strictly after their parent (BFS order, which also guarantees
// traversal termination), and edge distances within the metric's range.
// The arrays are adopted, not copied: the caller must not modify them after.
func NewFlatBK(hashes []Hash, childStart []uint32, dists []uint8, idStart []uint32, ids []int64) (*FlatBK, error) {
	n := len(hashes)
	if n == 0 {
		if len(ids) != 0 {
			return nil, fmt.Errorf("phash: flat tree has 0 nodes but %d ids", len(ids))
		}
		return &FlatBK{}, nil
	}
	if len(childStart) != n+1 || len(idStart) != n+1 || len(dists) != n {
		return nil, fmt.Errorf("phash: flat tree array lengths inconsistent (%d nodes, %d childStart, %d idStart, %d dists)",
			n, len(childStart), len(idStart), len(dists))
	}
	if childStart[0] != 1 || childStart[n] != uint32(n) {
		return nil, fmt.Errorf("phash: flat tree child spans do not cover nodes [1,%d)", n)
	}
	if idStart[0] != 0 || idStart[n] != uint32(len(ids)) {
		return nil, fmt.Errorf("phash: flat tree id spans do not cover %d ids", len(ids))
	}
	for i := 0; i < n; i++ {
		if childStart[i+1] < childStart[i] || childStart[i] < uint32(i+1) {
			return nil, fmt.Errorf("phash: flat tree node %d has a non-BFS child span [%d,%d)", i, childStart[i], childStart[i+1])
		}
		if idStart[i+1] <= idStart[i] {
			return nil, fmt.Errorf("phash: flat tree node %d has an empty id span", i)
		}
	}
	for j := 1; j < n; j++ {
		if dists[j] == 0 || dists[j] > MaxDistance {
			return nil, fmt.Errorf("phash: flat tree node %d has edge distance %d outside [1,%d]", j, dists[j], MaxDistance)
		}
	}
	return &FlatBK{hashes: hashes, childStart: childStart, dists: dists, idStart: idStart, ids: ids}, nil
}

// Data exposes the underlying arrays for serialisation. The caller must
// treat them as read-only.
func (f *FlatBK) Data() (hashes []Hash, childStart []uint32, dists []uint8, idStart []uint32, ids []int64) {
	return f.hashes, f.childStart, f.dists, f.idStart, f.ids
}

// Len returns the number of (hash, id) pairs stored.
func (f *FlatBK) Len() int { return len(f.ids) }

// Keys returns the number of distinct hashes stored.
func (f *FlatBK) Keys() int { return len(f.hashes) }

// appendRadius pushes every stored hash within the radius of q onto s.out,
// without resetting it (ShardedBK accumulates across shards). The traversal
// mirrors the pointer tree's exactly — same stack discipline, same child
// order — so the appended match order is bitwise identical to bkNode
// traversal. Match.IDs are subslices of the flat ID arena; they stay valid
// for the life of the tree. Steady state is allocation-free once the
// scratch buffers have grown to the working-set size.
//
//memes:noalloc
func (f *FlatBK) appendRadius(q Hash, radius int, s *Scratch) {
	if len(f.hashes) == 0 || radius < 0 {
		return
	}
	s.stack = append(s.stack[:0], 0)
	for len(s.stack) > 0 {
		n := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		d := Distance(q, f.hashes[n])
		if d <= radius {
			s.out = append(s.out, Match{Hash: f.hashes[n], Distance: d, IDs: f.ids[f.idStart[n]:f.idStart[n+1]]})
		}
		lo, hi := d-radius, d+radius
		for c := f.childStart[n]; c < f.childStart[n+1]; c++ {
			if cd := int(f.dists[c]); cd >= lo && cd <= hi {
				s.stack = append(s.stack, c)
			}
		}
	}
}

// Radius returns all stored hashes within Hamming distance radius of q. It
// allocates its own scratch; hot paths use RadiusScratch via BKTree.
func (f *FlatBK) Radius(q Hash, radius int) []Match {
	var s Scratch
	f.appendRadius(q, radius, &s)
	if len(s.out) == 0 {
		return nil
	}
	return s.out
}

// Nearest returns the stored hash closest to q with the same deterministic
// tie-break as the pointer tree: lowest hash value wins among equals. The
// candidate stack starts in the frame, so a query allocates only if the
// traversal outgrows it.
//
//memes:noalloc
func (f *FlatBK) Nearest(q Hash) (Match, bool) {
	if len(f.hashes) == 0 {
		return Match{}, false
	}
	best := Match{Distance: MaxDistance + 1}
	var frame [256]uint32
	stack := frame[:1] // the root, node 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := Distance(q, f.hashes[n])
		if d < best.Distance || (d == best.Distance && f.hashes[n] < best.Hash) {
			best = Match{Hash: f.hashes[n], Distance: d, IDs: f.ids[f.idStart[n]:f.idStart[n+1]]}
			if d == 0 {
				return best, true
			}
		}
		lo, hi := d-best.Distance, d+best.Distance
		for c := f.childStart[n]; c < f.childStart[n+1]; c++ {
			if cd := int(f.dists[c]); cd >= lo && cd <= hi {
				stack = append(stack, c)
			}
		}
	}
	return best, true
}

// Walk visits every distinct stored hash in node order. Returning false
// from fn stops the walk early.
func (f *FlatBK) Walk(fn func(h Hash, ids []int64) bool) {
	for n := range f.hashes {
		if !fn(f.hashes[n], f.ids[f.idStart[n]:f.idStart[n+1]]) {
			return
		}
	}
}

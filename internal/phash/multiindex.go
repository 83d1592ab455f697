package phash

import (
	"cmp"
	"context"
	"slices"

	"github.com/memes-pipeline/memes/internal/parallel"
)

// The band layout shared by MultiIndex and the Neighbourhoods probing
// regime: a 64-bit hash is eight disjoint 8-bit bands.
const (
	mihBands    = 8
	mihBandBits = Size / mihBands
	mihBuckets  = 1 << mihBandBits
	// mihLinearRadius is the radius from which a probe stops using the
	// bands: the substring bound below would need band values two flips
	// away, by which point the probe set covers most of the table anyway.
	mihLinearRadius = 2 * mihBands
	// mihMaxSpans bounds a probe set: every band at band-radius one.
	mihMaxSpans = mihBands * (1 + mihBandBits)
)

// bandTable is a pointer-free multi-index hashing table over a fixed slice
// of hashes. Every band holds a full copy of the entries sorted by that
// band's value (one stable counting sort each), addressed CSR-style: the
// entries whose band b equals v sit at positions [offs[b][v], offs[b][v+1])
// of hashes/slots, in ascending input order. A probe is then a handful of
// contiguous popcount scans instead of map lookups.
type bandTable struct {
	src    []Hash // the input, not copied
	offs   [mihBands][mihBuckets + 1]int
	hashes []Hash  // mihBands copies of src; band b's at [b*n, (b+1)*n)
	slots  []int32 // parallel to hashes: the entry's index in src
}

// span is a half-open range of positions in bandTable.hashes.
type span struct{ lo, hi int }

// newBandTable indexes hashes, which the table keeps a reference to; slot i
// of the table is hashes[i].
func newBandTable(hashes []Hash) *bandTable {
	n := len(hashes)
	t := &bandTable{src: hashes, hashes: make([]Hash, mihBands*n), slots: make([]int32, mihBands*n)}
	for b := range t.offs {
		shift := uint(b * mihBandBits)
		var next [mihBuckets]int
		for _, h := range hashes {
			next[uint8(h>>shift)]++
		}
		at := b * n
		for v, c := range next {
			t.offs[b][v], next[v] = at, at
			at += c
		}
		t.offs[b][mihBuckets] = at
		for i, h := range hashes {
			p := next[uint8(h>>shift)]
			next[uint8(h>>shift)]++
			t.hashes[p], t.slots[p] = h, int32(i)
		}
	}
	return t
}

// spans appends to buf the entry ranges that together hold every hash
// within radius of q (some of them more than once). It is Norouzi's
// substring bound: write radius = mihBands·r + a; a hash within radius of q
// differs from it by at most r bits in one of bands 0..a, or by at most r-1
// bits in one of the others — otherwise the bands alone would add up to
// more than radius. At the pipeline's radius of 8 that is band 0 at one
// flip and bands 1-7 exact: 16 buckets, about n/16 entries. From
// mihLinearRadius on the answer is band 0's copy, which is every entry once.
//
//memes:noalloc
func (t *bandTable) spans(q Hash, radius int, buf []span) []span {
	if radius < 0 {
		return buf
	}
	if radius >= mihLinearRadius {
		return append(buf, span{0, len(t.src)})
	}
	r, a := radius/mihBands, radius%mihBands
	for b := 0; b < mihBands; b++ {
		flips := r // how far band b may differ
		if b > a {
			flips--
		}
		if flips < 0 {
			break
		}
		offs := &t.offs[b]
		key := int(uint8(q >> uint(b*mihBandBits)))
		buf = append(buf, span{offs[key], offs[key+1]})
		if flips > 0 {
			for bit := 0; bit < mihBandBits; bit++ {
				k := key ^ 1<<bit
				buf = append(buf, span{offs[k], offs[k+1]})
			}
		}
	}
	return buf
}

// appendWithin appends to dst the slot of every entry within radius of q,
// ascending and each once.
//
//memes:noalloc
func (t *bandTable) appendWithin(dst []int32, q Hash, radius int) []int32 {
	var buf [mihMaxSpans]span
	spans := t.spans(q, radius, buf[:0])
	total := 0
	for _, sp := range spans {
		total += sp.hi - sp.lo
	}
	if total >= len(t.src)/4 {
		// The linear regime, or a neighbourhood so crowded that its buckets
		// add up to a good part of the table: the hits, found several times
		// over, would cost more to sort than the bands save. Scan the input
		// in its own order instead — ascending and unique with no sort.
		for i, h := range t.src {
			if Distance(q, h) <= radius {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	at := len(dst)
	for _, sp := range spans {
		for i, h := range t.hashes[sp.lo:sp.hi] {
			if Distance(q, h) <= radius {
				dst = append(dst, t.slots[sp.lo+i])
			}
		}
	}
	slices.Sort(dst[at:])
	return dst[:at+len(slices.Compact(dst[at:]))]
}

// MultiIndex is multi-index hashing over 64-bit perceptual hashes: a
// bandTable over the inserted (hash, id) pairs, exact at every radius. It
// is the default Step 6 strategy: at the pipeline's radius of 8 a probe
// popcounts about a sixteenth of the table, where a BK-tree over the same
// medoids visits most of its nodes.
//
// The lifecycle is Insert, Seal, query. Seal sorts the pairs by (hash, id)
// and builds the table; Insert after Seal panics. A query before Seal seals
// a private copy first — correct, and slow: the serve path always seals.
// Concurrent queries are safe once inserts are complete.
type MultiIndex struct {
	hashes []Hash  // the pairs; sorted by (hash, id) once sealed
	ids    []int64 // parallel to hashes
	table  *bandTable
}

// NewMultiIndex returns an empty multi-index.
func NewMultiIndex() *MultiIndex { return &MultiIndex{} }

// Len returns the number of (hash, id) pairs stored.
func (m *MultiIndex) Len() int { return len(m.hashes) }

// Insert adds a hash and its item identifier to the index.
func (m *MultiIndex) Insert(h Hash, id int64) {
	if m.table != nil {
		panic("phash: Insert into sealed MultiIndex")
	}
	m.hashes = append(m.hashes, h)
	m.ids = append(m.ids, id)
}

// Seal sorts the pairs by (hash, id) — equal hashes become one contiguous
// run with ascending ids — and builds the band table over them. Sealing a
// sealed index is a no-op.
func (m *MultiIndex) Seal() {
	if m.table != nil {
		return
	}
	type pair struct {
		h  Hash
		id int64
	}
	pairs := make([]pair, len(m.hashes))
	for i, h := range m.hashes {
		pairs[i] = pair{h, m.ids[i]}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, p := range pairs {
		m.hashes[i], m.ids[i] = p.h, p.id
	}
	m.table = newBandTable(m.hashes)
}

// sealed returns m if it is sealed and a sealed copy of it otherwise.
func (m *MultiIndex) sealed() *MultiIndex {
	if m.table != nil {
		return m
	}
	c := &MultiIndex{hashes: slices.Clone(m.hashes), ids: slices.Clone(m.ids)}
	c.Seal()
	return c
}

// NearestWithin returns the id of the stored pair closest to q among those
// within radius, and its distance; ties go to the lowest id. It is a radius
// query and the Step 6 reduction over its matches fused into one pass: the
// answer a caller would pick from Radius, with nothing materialised.
//
//memes:noalloc
func (m *MultiIndex) NearestWithin(q Hash, radius int) (id int64, dist int, ok bool) {
	m = m.sealed()
	t := m.table
	var buf [mihMaxSpans]span
	for _, sp := range t.spans(q, radius, buf[:0]) {
		for i := sp.lo; i < sp.hi; i++ {
			d := Distance(q, t.hashes[i])
			if d > radius {
				continue
			}
			if c := m.ids[t.slots[i]]; !ok || d < dist || (d == dist && c < id) {
				id, dist, ok = c, d, true
			}
		}
	}
	return id, dist, ok
}

// Radius returns all stored hashes within Hamming distance radius of q, one
// match per distinct hash carrying its ids in ascending order, sorted by
// distance and then hash. It allocates its own scratch; hot paths use
// RadiusScratch.
func (m *MultiIndex) Radius(q Hash, radius int) []Match {
	var s Scratch
	if out := m.RadiusScratch(q, radius, &s); len(out) > 0 {
		return out
	}
	return nil
}

// RadiusScratch is Radius through caller-owned scratch: nothing is
// allocated once s has grown to the working-set size. The result aliases s
// (and Match.IDs the index) and is valid until the next query through s.
//
//memes:noalloc
func (m *MultiIndex) RadiusScratch(q Hash, radius int, s *Scratch) []Match {
	m = m.sealed()
	s.Reset()
	s.slots = m.table.appendWithin(s.slots[:0], q, radius)
	// The pairs are sorted by hash, so the hits on one hash are one run of
	// consecutive slots — its whole run, since equal hashes are equally far.
	for i := 0; i < len(s.slots); {
		lo := s.slots[i]
		h := m.hashes[lo]
		for i++; i < len(s.slots) && m.hashes[s.slots[i]] == h; i++ {
		}
		s.out = append(s.out, Match{Hash: h, Distance: Distance(q, h), IDs: m.ids[lo : s.slots[i-1]+1]})
	}
	slices.SortFunc(s.out, compareMatches)
	return s.out
}

// compareMatches orders matches by distance, then hash.
func compareMatches(a, b Match) int {
	return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Hash, b.Hash))
}

// Nearest returns the stored hash closest to q and its distance, with the
// ids of every pair sharing that hash. The boolean is false when the index
// is empty. Ties between distinct hashes at the same distance go to the
// lowest hash value.
//
//memes:noalloc
func (m *MultiIndex) Nearest(q Hash) (Match, bool) {
	m = m.sealed()
	if len(m.hashes) == 0 {
		return Match{}, false
	}
	// Ascending hash order makes the first minimum the lowest hash.
	best, bestDist := 0, MaxDistance+1
	for i, h := range m.hashes {
		if d := Distance(q, h); d < bestDist {
			best, bestDist = i, d
		}
	}
	end := best + 1
	for end < len(m.hashes) && m.hashes[end] == m.hashes[best] {
		end++
	}
	return Match{Hash: m.hashes[best], Distance: bestDist, IDs: m.ids[best:end]}, true
}

// Walk visits every distinct hash stored in the index in ascending order,
// with the ids of all pairs sharing it. Returning false from fn stops the
// walk early.
func (m *MultiIndex) Walk(fn func(h Hash, ids []int64) bool) {
	m = m.sealed()
	for lo := 0; lo < len(m.hashes); {
		hi := lo + 1
		for hi < len(m.hashes) && m.hashes[hi] == m.hashes[lo] {
			hi++
		}
		if !fn(m.hashes[lo], m.ids[lo:hi]) {
			return
		}
		lo = hi
	}
}

// PairwiseWithin computes, in parallel, all pairs (i, j), i < j, of the given
// hashes whose Hamming distance is at most radius. It is PairwiseWithinCtx
// without cancellation, with fan-out bounded by GOMAXPROCS.
func PairwiseWithin(hashes []Hash, radius int, fn func(i, j, d int)) {
	_ = PairwiseWithinCtx(context.Background(), hashes, radius, 0, fn)
}

// PairwiseWithinCtx computes, in parallel, all pairs (i, j), i < j, of the
// given hashes whose Hamming distance is at most radius. It is the drop-in
// replacement for the paper's TensorFlow pairwise comparison step and is used
// by DBSCAN's neighbourhood precomputation. The callback receives the indexes
// of the pair and their distance; it must be safe for concurrent invocation.
// workers bounds the fan-out (0 = GOMAXPROCS). Cancellation stops rows from
// being scheduled and returns ctx.Err(); rows already dispatched complete.
func PairwiseWithinCtx(ctx context.Context, hashes []Hash, radius, workers int, fn func(i, j, d int)) error {
	n := len(hashes)
	if n < 2 {
		return ctx.Err()
	}
	return parallel.ForCtx(ctx, n, workers, func(i int) {
		hi := hashes[i]
		for j := i + 1; j < n; j++ {
			d := Distance(hi, hashes[j])
			if d <= radius {
				fn(i, j, d)
			}
		}
	})
}

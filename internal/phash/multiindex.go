package phash

import (
	"cmp"
	"context"
	"slices"

	"github.com/memes-pipeline/memes/internal/parallel"
)

// The band layouts. A 64-bit hash is cut into disjoint bands of balanced
// widths, and the layout is a function of the number of hashes alone,
// chosen when the table is built. Norouzi, Punjani & Fleet's analysis of
// multi-index hashing puts the best band width near log₂ n: narrow bands
// leave ~n/2^bits entries in every bucket a probe or a join reads, wide ones
// leave most buckets empty. Below wideCutover the table is eight 8-bit
// bands, so every serve index measured (147 and 4,698 medoids) keeps Step
// 6's layout and numbers. From wideCutover on it is six bands, four of 11
// bits and two of 10: the fewest bands whose one-flip budget still reaches
// Table 8's widest eps of 10 (see linearRadius).
var (
	narrowBands = []uint8{8, 8, 8, 8, 8, 8, 8, 8}
	wideBands   = []uint8{11, 11, 11, 11, 10, 10}
)

// wideCutover is the table size from which newBandTable picks wideBands.
// Measured with the self-join on meme-like corpora (2-vCPU VM, one worker):
// the wide layout ties eight 8-bit bands near 4,096 hashes and is 1.4×
// (eps 8) to 1.9× (eps 10) ahead at 8,192 and 1.5× to 2.5× at 23,629, while
// Step 6's probe at 4,698 medoids stays on the 8-bit bands. A variable only
// so the equivalence tests can force either layout; the layout never
// changes a result.
var wideCutover = 1 << 13

// mihMaxSpans bounds a probe set: every band at band-radius one, which is
// 8·(1+8) = 6·(1+11) = 72 spans under either layout.
const mihMaxSpans = 72

// bandWidths returns the band layout for a table over n hashes.
func bandWidths(n int) []uint8 {
	if n >= wideCutover {
		return wideBands
	}
	return narrowBands
}

// linearRadius is the radius from which a table of the given number of
// bands stops using them: flipBudget would need band values two flips away,
// by which point the candidates cover most of the table anyway.
func linearRadius(bands int) int { return 2 * bands }

// flipBudget is Norouzi's substring bound: write radius = m·r + a over m
// bands; a hash within radius of another differs from it by at most r bits
// in one of bands 0..a, or by at most r-1 bits in one of the others —
// otherwise the bands alone would add up to more than radius, whatever
// their widths. It returns how far band b may differ; negative means the
// band is not needed.
func flipBudget(radius, bands, b int) int {
	if b > radius%bands {
		return radius/bands - 1
	}
	return radius / bands
}

// band is one substring of the hash, bits [shift, shift+bits), with the
// CSR offsets of its copy of the table: the entries whose key is v sit at
// positions [offs[v], offs[v+1]) of bandTable.hashes and slots.
type band struct {
	shift uint
	bits  int
	mask  Hash
	offs  []int // 1<<bits + 1 entries
}

// key returns h's bucket in this band.
func (b *band) key(h Hash) int { return int(h >> b.shift & b.mask) }

// bandTable is a pointer-free multi-index hashing table over a fixed slice
// of hashes. Every band holds a full copy of the entries sorted by that
// band's value (one stable counting sort each), addressed CSR-style, in
// ascending input order within a bucket. A probe is then a handful of
// contiguous popcount scans instead of map lookups, and a self-join a walk
// over the buckets in key order.
type bandTable struct {
	src    []Hash // the input, not copied
	bands  []band
	hashes []Hash  // one copy of src per band; band b's at [b*n, (b+1)*n)
	slots  []int32 // parallel to hashes: the entry's index in src
}

// span is a half-open range of positions in bandTable.hashes.
type span struct{ lo, hi int }

// newBandTable indexes hashes, which the table keeps a reference to; slot i
// of the table is hashes[i]. The layout is bandWidths(len(hashes)).
func newBandTable(hashes []Hash) *bandTable {
	n := len(hashes)
	widths := bandWidths(n)
	t := &bandTable{
		src:    hashes,
		bands:  make([]band, len(widths)),
		hashes: make([]Hash, len(widths)*n),
		slots:  make([]int32, len(widths)*n),
	}
	size := 0
	for _, w := range widths {
		size += 1<<w + 1
	}
	offs := make([]int, size)
	next := make([]int, 1<<slices.Max(widths))
	shift := uint(0)
	for b, w := range widths {
		buckets := 1 << w
		bd := band{shift: shift, bits: int(w), mask: Hash(buckets - 1), offs: offs[: buckets+1 : buckets+1]}
		offs, shift = offs[buckets+1:], shift+uint(w)
		bd.offs[0] = b * n
		for _, h := range hashes {
			bd.offs[bd.key(h)+1]++
		}
		for v := 1; v <= buckets; v++ {
			bd.offs[v] += bd.offs[v-1]
		}
		copy(next, bd.offs[:buckets])
		for i, h := range hashes {
			k := bd.key(h)
			t.hashes[next[k]], t.slots[next[k]] = h, int32(i)
			next[k]++
		}
		t.bands[b] = bd
	}
	return t
}

// spans appends to buf the entry ranges that together hold every hash
// within radius of q (some of them more than once): per band, q's bucket
// and, where flipBudget allows a flip, the buckets one bit away. At the
// pipeline's radius of 8 over eight bands that is band 0 at one flip and
// bands 1-7 exact: 16 buckets, about n/16 entries. From linearRadius on the
// answer is band 0's copy, which is every entry once.
//
//memes:noalloc
func (t *bandTable) spans(q Hash, radius int, buf []span) []span {
	if radius < 0 {
		return buf
	}
	m := len(t.bands)
	if radius >= linearRadius(m) {
		return append(buf, span{0, len(t.src)})
	}
	for b := range t.bands {
		flips := flipBudget(radius, m, b)
		if flips < 0 {
			break
		}
		bd := &t.bands[b]
		key := bd.key(q)
		buf = append(buf, span{bd.offs[key], bd.offs[key+1]})
		if flips > 0 {
			for bit := 0; bit < bd.bits; bit++ {
				k := key ^ 1<<bit
				buf = append(buf, span{bd.offs[k], bd.offs[k+1]})
			}
		}
	}
	return buf
}

// pair is two input indexes within the join radius of each other.
type pair struct{ i, j int32 }

// selfJoin returns every pair of the table's entries within radius of each
// other, each exactly once, as one list per task; radius must be in
// [0, linearRadius). For each band the flip budget admits, it walks the
// buckets in key order and popcounts each bucket against itself and, when
// the band may differ by a flip, against every higher-keyed bucket one bit
// away — so a candidate pair is examined once per band that admits it, not
// once from each end, and memory is read in bucket order. A pair within
// radius is kept only in the lowest band that admits it, so no pair is
// found twice and the output needs no deduplication. The bands' key ranges
// are cut into tasks run on up to w goroutines.
func (t *bandTable) selfJoin(ctx context.Context, radius, w int) ([][]pair, error) {
	type task struct{ b, lo, hi int }
	per := 1
	if w > 1 {
		per = 4 * w
	}
	var tasks []task
	for b := range t.bands {
		if flipBudget(radius, len(t.bands), b) < 0 {
			break
		}
		keys := len(t.bands[b].offs) - 1
		for c := 0; c < per; c++ {
			tasks = append(tasks, task{b, c * keys / per, (c + 1) * keys / per})
		}
	}
	return parallel.MapCtx(ctx, len(tasks), w, func(i int) []pair {
		tk := tasks[i]
		return t.joinBuckets(nil, tk.b, tk.lo, tk.hi, radius)
	})
}

// joinBuckets appends to dst the pairs band b finds first among the
// buckets keyed [lo, hi).
func (t *bandTable) joinBuckets(dst []pair, b, lo, hi, radius int) []pair {
	bd := &t.bands[b]
	flip := flipBudget(radius, len(t.bands), b) > 0
	for k := lo; k < hi; k++ {
		at, end := bd.offs[k], bd.offs[k+1]
		if at == end {
			continue
		}
		bucket := t.hashes[at:end]
		for x, hx := range bucket {
			for y, hy := range bucket[x+1:] {
				if d := hx ^ hy; Distance(d, 0) <= radius && t.firstBand(d, b, radius) {
					dst = append(dst, pair{t.slots[at+x], t.slots[at+x+1+y]})
				}
			}
		}
		if !flip {
			continue
		}
		for bit := 0; bit < bd.bits; bit++ {
			k2 := k | 1<<bit
			if k2 == k {
				continue // the lower bucket of the two joins them
			}
			at2 := bd.offs[k2]
			other := t.hashes[at2:bd.offs[k2+1]]
			for x, hx := range bucket {
				for y, hy := range other {
					if d := hx ^ hy; Distance(d, 0) <= radius && t.firstBand(d, b, radius) {
						dst = append(dst, pair{t.slots[at+x], t.slots[at2+y]})
					}
				}
			}
		}
	}
	return dst
}

// firstBand reports whether b is the lowest band whose flip budget admits
// two hashes differing in the bits of d.
func (t *bandTable) firstBand(d Hash, b, radius int) bool {
	for e := 0; e < b; e++ {
		if Distance(Hash(t.bands[e].key(d)), 0) <= flipBudget(radius, len(t.bands), e) {
			return false
		}
	}
	return true
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
// bandTable over the distinct hashes of the inserted (hash, id) pairs, exact
// at every radius. It is the default Step 6 strategy: at the pipeline's
// radius of 8 a probe popcounts about a sixteenth of the distinct hashes,
// where a BK-tree over the same medoids visits most of its nodes. The
// annotated medoids of one meme in several communities mostly share a hash
// (4,698 medoids, 2,661 distinct hashes on the large corpus), and the table
// holds each hash once, with the run of ids it carries.
//
// The lifecycle is Insert, Seal, query. Seal sorts the pairs by (hash, id)
// and builds the table; Insert after Seal panics. A query before Seal seals
// a private copy first — correct, and slow: the serve path always seals.
// Concurrent queries are safe once inserts are complete.
type MultiIndex struct {
	hashes []Hash  // the pairs; sorted by (hash, id) once sealed
	ids    []int64 // parallel to hashes
	// starts[u] is where table slot u's run of equal hashes begins in
	// hashes, plus a final len(hashes): slot u's ids, ascending, are
	// ids[starts[u]:starts[u+1]].
	starts []int32
	table  *bandTable // over the distinct hashes, ascending
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
// run with ascending ids — and builds the band table over the distinct
// hashes, one slot per run. Sealing a sealed index is a no-op.
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
	runs := 0
	for i, p := range pairs {
		m.hashes[i], m.ids[i] = p.h, p.id
		if i == 0 || p.h != pairs[i-1].h {
			runs++
		}
	}
	distinct := make([]Hash, 0, runs)
	m.starts = make([]int32, 0, runs+1)
	for i, h := range m.hashes {
		if i == 0 || h != m.hashes[i-1] {
			distinct = append(distinct, h)
			m.starts = append(m.starts, int32(i))
		}
	}
	m.starts = append(m.starts, int32(len(m.hashes)))
	m.table = newBandTable(distinct)
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
// answer a caller would pick from Radius, with nothing materialised. A
// slot's candidate is its run's first id, the lowest; an exact hit ends the
// probe, since q itself is the only hash at distance 0 and the table holds
// it once.
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
			c := m.ids[m.starts[t.slots[i]]]
			if d == 0 {
				return c, 0, true
			}
			if !ok || d < dist || (d == dist && c < id) {
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
	for _, u := range s.slots {
		h := m.table.src[u]
		s.out = append(s.out, Match{Hash: h, Distance: Distance(q, h), IDs: m.ids[m.starts[u]:m.starts[u+1]]})
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

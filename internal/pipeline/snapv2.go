package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/faults"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// MEMESNAP v2: the flat, offset-based snapshot layout. Where v1 is a varint
// stream that must be decoded byte by byte, v2 is a fixed-width header plus
// a directory of contiguous, 8-aligned sections — fixed-size table rows, one
// string arena addressed by offset+length spans, and the compiled flat
// BK-tree arrays — terminated by a CRC-32 trailer over everything before it.
// A loader validates the checksum and the directory, then materialises the
// cluster table with no per-cluster varint decode; under the bktree
// strategy the decoded tree arrays are the medoid index, under the others
// it builds theirs from that table.
//
// Layout (all integers little-endian):
//
//	[0:8]    magic "MEMESNAP"
//	[8:12]   version  u32 = 2
//	[12:16]  flags    u32 = 0 (readers reject unknown flags)
//	[16:24]  fileSize u64 (total bytes including the 4-byte CRC trailer)
//	[24:64]  config echo: eps, minPts, annotationThreshold,
//	         associationThreshold, workers — five u64s
//	[64:72]  config index-strategy string span: offset u32 + length u32
//	         into the string arena
//	[72:232] section directory: 10 × (offset u64, count u64)
//	  0 communities   rows of 48 B: community, images, distinctHashes,
//	                  noiseImages, clusters, annotated — six u64s
//	  1 clusters      rows of 48 B: community u32, flags u32 (bit0 racist,
//	                  bit1 political), label i64, medoid u64, images u32,
//	                  distinctHashes u32, matchOff u32, matchN u32,
//	                  repIdx+1 u32 (0 = no representative), pad u32; the
//	                  cluster ID is the row index
//	  2 matches       rows of 24 B: entryIdx u32, matches u32,
//	                  matchFraction f64 bits, meanDistance f64 bits
//	  3 entries       rows of 8 B: nameOff u32, nameLen u32 — the distinct
//	                  annotation entries, resolved against the site once at
//	                  load; match and representative references index here
//	  4 strings       raw UTF-8 arena; count = byte length
//	  5 treeHashes    []u64, the flat BK-tree node hashes in BFS order
//	  6 treeChildStart []u32, len nodes+1
//	  7 treeDists     []u8, per-node edge distance from parent
//	  8 treeIDStart   []u32, len nodes+1
//	  9 treeIDs       []i64, the cluster IDs grouped by node
//	[fileSize-4:] CRC-32 (IEEE) of bytes [0:fileSize-4]
//
// Sections start 8-aligned (zero padding between them).
//
// The flat tree is compiled fresh from the annotated clusters at save time
// (never taken from the resident index), so the emitted bytes are identical
// regardless of which index strategy or worker count produced the build —
// the same strategy-agnosticism v1 gets by not persisting an index at all.
// At load the serialized tree is validated under every strategy and *is*
// the index under bktree; the others (the default multiindex among them)
// build theirs from the cluster table.

const (
	// SnapshotV1 is the varint streaming layout (the original format).
	SnapshotV1 uint32 = 1
	// SnapshotV2 is the flat, offset-based layout.
	SnapshotV2 uint32 = 2
	// SnapshotLatest is what Save emits by default.
	SnapshotLatest = SnapshotV2
)

const (
	v2DirOff       = 72
	v2SectionCount = 10
	v2HeaderSize   = v2DirOff + v2SectionCount*16 // 232
	v2TrailerSize  = 4

	v2SecCommunities = 0
	v2SecClusters    = 1
	v2SecMatches     = 2
	v2SecEntries     = 3
	v2SecStrings     = 4
	v2SecTreeHashes  = 5
	v2SecTreeChild   = 6
	v2SecTreeDists   = 7
	v2SecTreeIDStart = 8
	v2SecTreeIDs     = 9

	v2CommunityRowSize = 48
	v2ClusterRowSize   = 48
	v2MatchRowSize     = 24
	v2EntryRowSize     = 8
)

// v2SectionElemSize maps a section to its element width in bytes.
var v2SectionElemSize = [v2SectionCount]uint64{
	v2CommunityRowSize, v2ClusterRowSize, v2MatchRowSize, v2EntryRowSize, 1, 8, 4, 1, 4, 8,
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// v2Strings interns strings into one arena with first-occurrence
// deduplication, so the arena bytes are a pure function of the intern call
// sequence — a determinism requirement: saving the same build twice (or a
// loaded copy of it) must emit identical files.
type v2Strings struct {
	arena []byte
	spans map[string]uint64 // name → off<<32 | len
}

func (s *v2Strings) intern(v string) (off, n uint32) {
	if v == "" {
		return 0, 0
	}
	if packed, ok := s.spans[v]; ok {
		return uint32(packed >> 32), uint32(packed)
	}
	off = uint32(len(s.arena))
	n = uint32(len(v))
	s.arena = append(s.arena, v...)
	s.spans[v] = uint64(off)<<32 | uint64(n)
	return off, n
}

// saveV2 writes the flat snapshot layout. The file is assembled in one
// buffer: sizes are exact once the string arena and flat tree are built, so
// the single Write is also the only large allocation.
func (b *BuildResult) saveV2(w io.Writer) error {
	// Compile the flat tree from the annotated clusters in ID order — the
	// exact insert sequence buildIndex uses — never from the resident
	// index, so the bytes are strategy- and worker-agnostic.
	tree := phash.NewBKTree()
	for i := range b.Clusters {
		if b.Clusters[i].Annotated() {
			tree.Insert(b.Clusters[i].MedoidHash, int64(b.Clusters[i].ID))
		}
	}
	tree.Seal()
	hashes, childStart, dists, idStart, ids := tree.Flat().Data()
	if len(hashes) == 0 {
		// Canonical empty-tree encoding: every tree section has count 0.
		childStart, idStart = nil, nil
	}

	// Intern strings and the distinct-entry table in deterministic order:
	// config echo first, then every cluster's match entries and
	// representative in ID order, each distinct entry getting the next row
	// of the entries section on first occurrence.
	strs := &v2Strings{spans: make(map[string]uint64)}
	cfgOff, cfgLen := strs.intern(string(b.Config.Index))
	entryIdx := make(map[string]uint32)
	var entrySpans []uint64 // nameOff<<32 | nameLen, in first-occurrence order
	internEntry := func(name string) uint32 {
		if i, ok := entryIdx[name]; ok {
			return i
		}
		off, n := strs.intern(name)
		i := uint32(len(entrySpans))
		entrySpans = append(entrySpans, uint64(off)<<32|uint64(n))
		entryIdx[name] = i
		return i
	}
	totalMatches := 0
	for i := range b.Clusters {
		ci := &b.Clusters[i]
		totalMatches += len(ci.Annotation.Matches)
		for _, m := range ci.Annotation.Matches {
			internEntry(m.Entry.Name)
		}
		if ci.Annotation.Representative != nil {
			internEntry(ci.Annotation.Representative.Name)
		}
	}

	comms := b.Communities()

	// Lay the sections out: every offset 8-aligned, directory in file order.
	var offs, counts [v2SectionCount]uint64
	counts[v2SecCommunities] = uint64(len(comms))
	counts[v2SecClusters] = uint64(len(b.Clusters))
	counts[v2SecMatches] = uint64(totalMatches)
	counts[v2SecEntries] = uint64(len(entrySpans))
	counts[v2SecStrings] = uint64(len(strs.arena))
	counts[v2SecTreeHashes] = uint64(len(hashes))
	counts[v2SecTreeChild] = uint64(len(childStart))
	counts[v2SecTreeDists] = uint64(len(dists))
	counts[v2SecTreeIDStart] = uint64(len(idStart))
	counts[v2SecTreeIDs] = uint64(len(ids))
	off := uint64(v2HeaderSize)
	for s := 0; s < v2SectionCount; s++ {
		offs[s] = off
		off = align8(off + counts[s]*v2SectionElemSize[s])
	}
	fileSize := off + v2TrailerSize

	buf := make([]byte, fileSize)
	le := binary.LittleEndian
	copy(buf[0:8], snapshotMagic[:])
	le.PutUint32(buf[8:12], SnapshotV2)
	le.PutUint32(buf[12:16], 0) // flags
	le.PutUint64(buf[16:24], fileSize)
	le.PutUint64(buf[24:32], uint64(b.Config.Clustering.Eps))
	le.PutUint64(buf[32:40], uint64(b.Config.Clustering.MinPts))
	le.PutUint64(buf[40:48], uint64(b.Config.AnnotationThreshold))
	le.PutUint64(buf[48:56], uint64(b.Config.AssociationThreshold))
	le.PutUint64(buf[56:64], uint64(b.Config.Workers))
	le.PutUint32(buf[64:68], cfgOff)
	le.PutUint32(buf[68:72], cfgLen)
	for s := 0; s < v2SectionCount; s++ {
		le.PutUint64(buf[v2DirOff+s*16:], offs[s])
		le.PutUint64(buf[v2DirOff+s*16+8:], counts[s])
	}

	// Communities, in the fixed dataset.Communities() order.
	at := offs[v2SecCommunities]
	for _, c := range comms {
		s := b.PerCommunity[c]
		le.PutUint64(buf[at+0:], uint64(c))
		le.PutUint64(buf[at+8:], uint64(s.Images))
		le.PutUint64(buf[at+16:], uint64(s.DistinctHashes))
		le.PutUint64(buf[at+24:], uint64(s.NoiseImages))
		le.PutUint64(buf[at+32:], uint64(s.Clusters))
		le.PutUint64(buf[at+40:], uint64(s.Annotated))
		at += v2CommunityRowSize
	}

	// Clusters and their match rows. The cluster ID is implicit — row i is
	// cluster i, which the saver guarantees because Clusters[i].ID == i is a
	// build invariant (and the v1 loader checks it on ingest).
	at = offs[v2SecClusters]
	mat := offs[v2SecMatches]
	matchIdx := uint32(0)
	for i := range b.Clusters {
		ci := &b.Clusters[i]
		flags := uint32(0)
		if ci.Racist {
			flags |= 1
		}
		if ci.Political {
			flags |= 2
		}
		repIdxPlus1 := uint32(0)
		if ci.Annotation.Representative != nil {
			repIdxPlus1 = internEntry(ci.Annotation.Representative.Name) + 1
		}
		le.PutUint32(buf[at+0:], uint32(ci.Community))
		le.PutUint32(buf[at+4:], flags)
		le.PutUint64(buf[at+8:], uint64(int64(ci.Label)))
		le.PutUint64(buf[at+16:], uint64(ci.MedoidHash))
		le.PutUint32(buf[at+24:], uint32(ci.Images))
		le.PutUint32(buf[at+28:], uint32(ci.DistinctHashes))
		le.PutUint32(buf[at+32:], matchIdx)
		le.PutUint32(buf[at+36:], uint32(len(ci.Annotation.Matches)))
		le.PutUint32(buf[at+40:], repIdxPlus1)
		le.PutUint32(buf[at+44:], 0) // padding
		at += v2ClusterRowSize
		for _, m := range ci.Annotation.Matches {
			le.PutUint32(buf[mat+0:], internEntry(m.Entry.Name))
			le.PutUint32(buf[mat+4:], uint32(m.Matches))
			le.PutUint64(buf[mat+8:], math.Float64bits(m.MatchFraction))
			le.PutUint64(buf[mat+16:], math.Float64bits(m.MeanDistance))
			mat += v2MatchRowSize
			matchIdx++
		}
	}

	at = offs[v2SecEntries]
	for _, packed := range entrySpans {
		le.PutUint32(buf[at:], uint32(packed>>32))
		le.PutUint32(buf[at+4:], uint32(packed))
		at += v2EntryRowSize
	}

	copy(buf[offs[v2SecStrings]:], strs.arena)

	at = offs[v2SecTreeHashes]
	for _, h := range hashes {
		le.PutUint64(buf[at:], uint64(h))
		at += 8
	}
	at = offs[v2SecTreeChild]
	for _, v := range childStart {
		le.PutUint32(buf[at:], v)
		at += 4
	}
	copy(buf[offs[v2SecTreeDists]:], dists)
	at = offs[v2SecTreeIDStart]
	for _, v := range idStart {
		le.PutUint32(buf[at:], v)
		at += 4
	}
	at = offs[v2SecTreeIDs]
	for _, id := range ids {
		le.PutUint64(buf[at:], uint64(id))
		at += 8
	}

	le.PutUint32(buf[fileSize-v2TrailerSize:], crc32.ChecksumIEEE(buf[:fileSize-v2TrailerSize]))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("pipeline: writing snapshot: %w", err)
	}
	return nil
}

// v2View is the validated window onto a v2 file's bytes.
type v2View struct {
	data   []byte
	offs   [v2SectionCount]uint64
	counts [v2SectionCount]uint64
}

func (v *v2View) section(s int) []byte {
	return v.data[v.offs[s] : v.offs[s]+v.counts[s]*v2SectionElemSize[s]]
}

// str resolves an offset+length span into the string arena.
func (v *v2View) str(off, n uint32) (string, error) {
	if n == 0 {
		return "", nil
	}
	arena := v.section(v2SecStrings)
	if uint64(off)+uint64(n) > uint64(len(arena)) {
		return "", fmt.Errorf("pipeline: snapshot string span [%d,%d) exceeds arena of %d bytes", off, off+n, len(arena))
	}
	return string(arena[off : off+n]), nil
}

// v2Open validates the byte-level envelope of a v2 snapshot — length,
// magic, version, checksum, flags, directory bounds and alignment — and
// returns the section view. Everything semantic comes after.
func v2Open(data []byte) (*v2View, error) {
	if len(data) < v2HeaderSize+v2TrailerSize {
		return nil, fmt.Errorf("pipeline: snapshot truncated at %d bytes: checksum trailer unreachable", len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, errors.New("pipeline: not a snapshot stream (bad magic)")
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:12]); v != SnapshotV2 {
		return nil, fmt.Errorf("pipeline: unsupported snapshot version %d (supported: %d, %d)", v, SnapshotV1, SnapshotV2)
	}
	fileSize := le.Uint64(data[16:24])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: snapshot truncated or oversized: header says %d bytes, got %d (checksum trailer unverifiable)", fileSize, len(data))
	}
	want := le.Uint32(data[fileSize-v2TrailerSize:])
	if got := crc32.ChecksumIEEE(data[:fileSize-v2TrailerSize]); got != want {
		return nil, fmt.Errorf("pipeline: snapshot checksum mismatch (stored %08x, computed %08x): stream corrupt", want, got)
	}
	if flags := le.Uint32(data[12:16]); flags != 0 {
		return nil, fmt.Errorf("pipeline: snapshot carries unsupported flags %#x", flags)
	}
	v := &v2View{data: data}
	limit := fileSize - v2TrailerSize
	prevEnd := uint64(v2HeaderSize)
	for s := 0; s < v2SectionCount; s++ {
		off := le.Uint64(data[v2DirOff+s*16:])
		count := le.Uint64(data[v2DirOff+s*16+8:])
		if off%8 != 0 || off < prevEnd || off > limit {
			return nil, fmt.Errorf("pipeline: snapshot section %d misplaced at offset %d", s, off)
		}
		size := count * v2SectionElemSize[s]
		if count > limit || size > limit-off {
			return nil, fmt.Errorf("pipeline: snapshot section %d (%d elements) exceeds file bounds", s, count)
		}
		v.offs[s], v.counts[s] = off, count
		prevEnd = off + size
	}
	return v, nil
}

// The typed decodes: each copies a little-endian section into a fresh slice.

func v2U32s(b []byte, count uint64) []uint32 {
	if count == 0 {
		return nil
	}
	out := make([]uint32, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func v2Hashes(b []byte, count uint64) []phash.Hash {
	if count == 0 {
		return nil
	}
	out := make([]phash.Hash, count)
	for i := range out {
		out[i] = phash.Hash(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func v2I64s(b []byte, count uint64) []int64 {
	if count == 0 {
		return nil
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// loadBuildV2 reconstitutes a BuildResult from v2 snapshot bytes. Strings,
// the cluster table and the tree arrays are copied out eagerly, so the
// result shares no memory with data, and resolving annotation entries
// against the site fails loudly at load time, not first query.
func loadBuildV2(data []byte, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	if site == nil {
		return nil, errors.New("pipeline: nil annotation site")
	}
	start := now()
	v, err := v2Open(data)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian

	b := &BuildResult{
		Site:         site,
		Dataset:      ds,
		PerCommunity: make(map[dataset.Community]CommunityClustering, v.counts[v2SecCommunities]),
		snapVersion:  SnapshotV2,
	}
	idxStr, err := v.str(le.Uint32(data[64:68]), le.Uint32(data[68:72]))
	if err != nil {
		return nil, err
	}
	b.Config = Config{
		Clustering: cluster.DBSCANConfig{
			Eps:    int(le.Uint64(data[24:32])),
			MinPts: int(le.Uint64(data[32:40])),
		},
		AnnotationThreshold:  int(le.Uint64(data[40:48])),
		AssociationThreshold: int(le.Uint64(data[48:56])),
		Workers:              int(le.Uint64(data[56:64])),
		Index:                index.Strategy(idxStr),
	}

	// Communities.
	comms := v.section(v2SecCommunities)
	for i := uint64(0); i < v.counts[v2SecCommunities]; i++ {
		row := comms[i*v2CommunityRowSize:]
		c := dataset.Community(le.Uint64(row[0:8]))
		if !c.Valid() {
			return nil, fmt.Errorf("pipeline: snapshot names invalid community %d", int(c))
		}
		b.PerCommunity[c] = CommunityClustering{
			Community:      c,
			Images:         int(le.Uint64(row[8:16])),
			DistinctHashes: int(le.Uint64(row[16:24])),
			NoiseImages:    int(le.Uint64(row[24:32])),
			Clusters:       int(le.Uint64(row[32:40])),
			Annotated:      int(le.Uint64(row[40:48])),
		}
	}

	// Distinct annotation entries, resolved against the site exactly once
	// each — every match and representative reference below is then a plain
	// slice index into this table.
	nEntries := v.counts[v2SecEntries]
	entryRows := v.section(v2SecEntries)
	entries := make([]*annotate.Entry, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		row := entryRows[i*v2EntryRowSize:]
		name, err := v.str(le.Uint32(row[0:4]), le.Uint32(row[4:8]))
		if err != nil {
			return nil, err
		}
		e := site.Entry(name)
		if e == nil {
			return nil, fmt.Errorf("pipeline: snapshot references entry %q not on the annotation site (wrong site, or filtered differently than at build time)", name)
		}
		entries[i] = e
	}

	// Clusters: one eager pass over the fixed-width rows. Every cluster's
	// matches subslice one shared arena, so the load cost is two table
	// allocations plus the entry table above.
	nClusters := v.counts[v2SecClusters]
	nMatches := v.counts[v2SecMatches]
	clusterRows := v.section(v2SecClusters)
	matchRows := v.section(v2SecMatches)
	b.Clusters = make([]ClusterInfo, nClusters)
	matchArena := make([]annotate.EntryMatch, nMatches)
	for i := uint64(0); i < nClusters; i++ {
		row := clusterRows[i*v2ClusterRowSize:]
		ci := &b.Clusters[i]
		ci.ID = int(i)
		ci.Community = dataset.Community(le.Uint32(row[0:4]))
		flags := le.Uint32(row[4:8])
		ci.Racist = flags&1 != 0
		ci.Political = flags&2 != 0
		ci.Label = int(int64(le.Uint64(row[8:16])))
		ci.MedoidHash = phash.Hash(le.Uint64(row[16:24]))
		ci.Images = int(le.Uint32(row[24:28]))
		ci.DistinctHashes = int(le.Uint32(row[28:32]))
		mOff := uint64(le.Uint32(row[32:36]))
		mN := uint64(le.Uint32(row[36:40]))
		if mOff+mN > nMatches {
			return nil, fmt.Errorf("pipeline: snapshot cluster %d match span [%d,%d) exceeds %d match rows", i, mOff, mOff+mN, nMatches)
		}
		for j := uint64(0); j < mN; j++ {
			mrow := matchRows[(mOff+j)*v2MatchRowSize:]
			em := &matchArena[mOff+j]
			idx := uint64(le.Uint32(mrow[0:4]))
			if idx >= nEntries {
				return nil, fmt.Errorf("pipeline: snapshot match references entry row %d of %d", idx, nEntries)
			}
			em.Entry = entries[idx]
			em.Matches = int(le.Uint32(mrow[4:8]))
			em.MatchFraction = math.Float64frombits(le.Uint64(mrow[8:16]))
			em.MeanDistance = math.Float64frombits(le.Uint64(mrow[16:24]))
		}
		if mN > 0 {
			ci.Annotation.Matches = matchArena[mOff : mOff+mN : mOff+mN]
		}
		if repIdxPlus1 := uint64(le.Uint32(row[40:44])); repIdxPlus1 > 0 {
			if repIdxPlus1 > nEntries {
				return nil, fmt.Errorf("pipeline: snapshot cluster %d representative references entry row %d of %d", i, repIdxPlus1-1, nEntries)
			}
			ci.Annotation.Representative = entries[repIdxPlus1-1]
		}
	}

	if reconfig != nil {
		reconfig(&b.Config)
	}
	if err := b.Config.Validate(); err != nil {
		return nil, err
	}
	b.progress = progress
	b.buildStats.Workers = parallel.Workers(b.Config.Workers)

	// The load stage. The serialized flat tree is validated under every
	// strategy — what a file must satisfy to load cannot depend on how it
	// will be served — and under bktree it IS the index, with no rebuild.
	// The other strategies build from the cluster table exactly as v1 does
	// (the default's band table is a sort of the pairs and one counting sort
	// per band: ~20 µs at 147 medoids, under a millisecond at 4,698).
	em := emitter{stats: &b.buildStats, progress: progress}
	stageStart := em.start(StageLoad)
	flat, err := phash.NewFlatBK(
		v2Hashes(v.section(v2SecTreeHashes), v.counts[v2SecTreeHashes]),
		v2U32s(v.section(v2SecTreeChild), v.counts[v2SecTreeChild]),
		bytes.Clone(v.section(v2SecTreeDists)),
		v2U32s(v.section(v2SecTreeIDStart), v.counts[v2SecTreeIDStart]),
		v2I64s(v.section(v2SecTreeIDs), v.counts[v2SecTreeIDs]),
	)
	if err != nil {
		return nil, err
	}
	annotated := flat.Len()
	if b.Config.Index == index.BKTree {
		b.setIndex(phash.NewSealedBKTree(flat))
	} else if annotated, err = b.buildIndex(); err != nil {
		return nil, err
	}
	em.done(StageLoad, stageStart, len(b.Clusters))

	fringeImages := 0
	for _, c := range b.Communities() {
		fringeImages += b.PerCommunity[c].Images
	}
	b.buildStats.FringeImages = fringeImages
	b.buildStats.Clusters = len(b.Clusters)
	b.buildStats.AnnotatedClusters = annotated
	b.buildWall = since(start)
	return b, nil
}

// LoadBuildFile reconstitutes a BuildResult from a snapshot file. The whole
// file is read into memory in one call, so the result owns every byte it
// serves: nothing written to the file after the load can change it. A v2
// snapshot decodes from those bytes; v1 and anything else go through
// LoadBuild for its usual diagnostics.
func LoadBuildFile(path string, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	if err := faults.Inject("pipeline.load"); err != nil {
		return nil, fmt.Errorf("pipeline: loading snapshot: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading snapshot: %w", err)
	}
	if len(data) >= 12 && [8]byte(data[:8]) == snapshotMagic &&
		binary.LittleEndian.Uint32(data[8:12]) == SnapshotV2 {
		return loadBuildV2(data, site, ds, reconfig, progress)
	}
	return LoadBuild(bytes.NewReader(data), site, ds, reconfig, progress)
}

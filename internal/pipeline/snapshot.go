package pipeline

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// Snapshot persistence: a BuildResult serialises to a versioned binary
// stream so the expensive Steps 2-5 build runs once — on a big box, in a
// batch job — and any number of serving processes reconstitute the engine
// from the snapshot without touching the corpus. The stream carries the
// configuration echo, the per-community clustering summaries, and every
// cluster's metadata including its medoid hash and annotation (entries
// referenced by name). It deliberately does NOT carry:
//
//   - the medoid index: it is rebuilt from the medoid hashes on load, so a
//     snapshot written under one index strategy loads under any other;
//   - the dataset: posts are the traffic, not the artifact — bind one at
//     load time only if the legacy full-corpus Result is needed;
//   - the annotation site's entries: the loader resolves entry names
//     against the site it is given, which keeps snapshots small and makes a
//     site/snapshot mismatch a loud error instead of silent drift.
//
// All integers are unsigned varints (zig-zag for signed values), strings
// are length-prefixed UTF-8, and the payload is protected by a trailing
// CRC-32 so truncation or corruption fails loudly. The format is versioned
// by a magic header; readers reject versions they do not understand.

// snapshotMagic identifies a snapshot stream; the uint32 that follows is
// the format version (see SnapshotV1 / SnapshotV2 in snapv2.go).
var snapshotMagic = [8]byte{'M', 'E', 'M', 'E', 'S', 'N', 'A', 'P'}

// Save writes a binary snapshot of the build to w in the latest format
// (MEMESNAP v2, the flat offset-based layout). The snapshot captures
// everything Steps 2-5 produced; LoadBuild reconstitutes an equivalent
// BuildResult without re-running them.
func (b *BuildResult) Save(w io.Writer) error {
	return b.SaveVersion(w, SnapshotLatest)
}

// SaveVersion writes a snapshot in an explicit format version: SnapshotV1
// (the varint streaming layout, for consumers that predate v2) or
// SnapshotV2. Both round-trip through LoadBuild to equivalent engines
// serving bitwise-identical query output.
func (b *BuildResult) SaveVersion(w io.Writer, version uint32) error {
	switch version {
	case SnapshotV1:
		return b.saveV1(w)
	case SnapshotV2:
		return b.saveV2(w)
	default:
		return fmt.Errorf("pipeline: unsupported snapshot version %d (supported: %d, %d)", version, SnapshotV1, SnapshotV2)
	}
}

// saveV1 writes the original varint streaming layout.
func (b *BuildResult) saveV1(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("pipeline: writing snapshot header: %w", err)
	}
	var verbuf [4]byte
	binary.LittleEndian.PutUint32(verbuf[:], SnapshotV1)
	if _, err := bw.Write(verbuf[:]); err != nil {
		return fmt.Errorf("pipeline: writing snapshot header: %w", err)
	}

	// Everything after the header streams through the CRC.
	crc := crc32.NewIEEE()
	enc := &snapEncoder{w: io.MultiWriter(bw, crc)}

	// Config echo.
	enc.uvarint(uint64(b.Config.Clustering.Eps))
	enc.uvarint(uint64(b.Config.Clustering.MinPts))
	enc.uvarint(uint64(b.Config.AnnotationThreshold))
	enc.uvarint(uint64(b.Config.AssociationThreshold))
	enc.uvarint(uint64(b.Config.Workers))
	enc.string(string(b.Config.Index))

	// Per-community summaries, in the fixed dataset.Communities() order so
	// the byte stream is identical across runs and worker counts.
	comms := b.Communities()
	enc.uvarint(uint64(len(comms)))
	for _, c := range comms {
		s := b.PerCommunity[c]
		enc.uvarint(uint64(c))
		enc.uvarint(uint64(s.Images))
		enc.uvarint(uint64(s.DistinctHashes))
		enc.uvarint(uint64(s.NoiseImages))
		enc.uvarint(uint64(s.Clusters))
		enc.uvarint(uint64(s.Annotated))
	}

	// Clusters with their medoid hashes and annotations (entries by name).
	enc.uvarint(uint64(len(b.Clusters)))
	for i := range b.Clusters {
		ci := &b.Clusters[i]
		enc.uvarint(uint64(ci.ID))
		enc.uvarint(uint64(ci.Community))
		enc.varint(int64(ci.Label))
		enc.uint64(uint64(ci.MedoidHash))
		enc.uvarint(uint64(ci.Images))
		enc.uvarint(uint64(ci.DistinctHashes))
		enc.bool(ci.Racist)
		enc.bool(ci.Political)
		enc.uvarint(uint64(len(ci.Annotation.Matches)))
		for _, m := range ci.Annotation.Matches {
			enc.string(m.Entry.Name)
			enc.uvarint(uint64(m.Matches))
			enc.float64(m.MatchFraction)
			enc.float64(m.MeanDistance)
		}
		rep := ""
		if ci.Annotation.Representative != nil {
			rep = ci.Annotation.Representative.Name
		}
		enc.string(rep)
	}
	if enc.err != nil {
		return fmt.Errorf("pipeline: writing snapshot: %w", enc.err)
	}

	// Trailing CRC over the payload.
	var crcbuf [4]byte
	binary.LittleEndian.PutUint32(crcbuf[:], crc.Sum32())
	if _, err := bw.Write(crcbuf[:]); err != nil {
		return fmt.Errorf("pipeline: writing snapshot checksum: %w", err)
	}
	return bw.Flush()
}

// LoadBuild reads a snapshot written by Save and reconstitutes a BuildResult
// bound to the given annotation site, rebuilding the medoid index from the
// persisted medoid hashes — no Steps 2-5 work runs. Annotation entries are
// resolved by name against site; a snapshot whose entries the site does not
// carry fails loudly.
//
// ds may be nil: Associate and Match serve arbitrary posts without it, and
// only the legacy full-corpus Result requires a bound dataset. reconfig, if
// non-nil, may adjust the decoded configuration (worker count, index
// strategy) before the index is rebuilt; changing build-phase thresholds has
// no effect on the already-built clusters and only skews the config echo.
// progress observes a single StageLoad start/completion event pair.
func LoadBuild(r io.Reader, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	if site == nil {
		return nil, errors.New("pipeline: nil annotation site")
	}
	br := bufio.NewReader(r)
	header, err := br.Peek(12)
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading snapshot header: %w", err)
	}
	if [8]byte(header[:8]) != snapshotMagic {
		return nil, errors.New("pipeline: not a snapshot stream (bad magic)")
	}
	switch v := binary.LittleEndian.Uint32(header[8:12]); v {
	case SnapshotV1:
		return loadBuildV1(br, site, ds, reconfig, progress)
	case SnapshotV2:
		// The flat layout is random-access, not streaming: slurp the rest
		// and decode it, as LoadBuildFile does with the whole file.
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("pipeline: reading snapshot: %w", err)
		}
		return loadBuildV2(data, site, ds, reconfig, progress)
	default:
		return nil, fmt.Errorf("pipeline: unsupported snapshot version %d (supported: %d, %d)", v, SnapshotV1, SnapshotV2)
	}
}

// loadBuildV1 decodes the varint streaming layout; br is positioned at the
// start of the stream (header included — it is re-read here).
func loadBuildV1(br *bufio.Reader, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	start := now()
	var header [12]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("pipeline: reading snapshot header: %w", err)
	}

	crc := crc32.NewIEEE()
	dec := &snapDecoder{r: br, crc: crc}

	b := &BuildResult{
		Site:         site,
		Dataset:      ds,
		PerCommunity: make(map[dataset.Community]CommunityClustering),
		snapVersion:  SnapshotV1,
	}
	b.Config = Config{
		Clustering: cluster.DBSCANConfig{
			Eps:    int(dec.uvarint()),
			MinPts: int(dec.uvarint()),
		},
		AnnotationThreshold:  int(dec.uvarint()),
		AssociationThreshold: int(dec.uvarint()),
		Workers:              int(dec.uvarint()),
		Index:                index.Strategy(dec.string()),
	}

	// Decode phase: only structural reads, no semantic validation — a
	// corrupt stream must be diagnosed by the CRC check below, not by
	// whichever garbled value happens to trip a validity rule first. Entry
	// names are held as strings and resolved afterwards.
	type matchRaw struct {
		name          string
		matches       int
		matchFraction float64
		meanDistance  float64
	}
	type clusterRaw struct {
		info    ClusterInfo
		matches []matchRaw
		rep     string
	}

	nComms := int(dec.uvarint())
	type commRaw struct {
		c dataset.Community
		s CommunityClustering
	}
	var comms []commRaw
	for i := 0; i < nComms && dec.err == nil; i++ {
		c := dataset.Community(dec.uvarint())
		comms = append(comms, commRaw{c: c, s: CommunityClustering{
			Community:      c,
			Images:         int(dec.uvarint()),
			DistinctHashes: int(dec.uvarint()),
			NoiseImages:    int(dec.uvarint()),
			Clusters:       int(dec.uvarint()),
			Annotated:      int(dec.uvarint()),
		}})
	}

	nClusters := int(dec.uvarint())
	var clusters []clusterRaw
	if dec.err == nil && nClusters > 0 {
		// Cap the pre-allocation: a corrupt count must not trigger a huge
		// allocation before the CRC check gets a chance to reject the
		// stream. The slice still grows to the true size via append.
		capHint := nClusters
		if capHint > 1<<16 {
			capHint = 1 << 16
		}
		clusters = make([]clusterRaw, 0, capHint)
	}
	for i := 0; i < nClusters && dec.err == nil; i++ {
		cr := clusterRaw{info: ClusterInfo{
			ID:         int(dec.uvarint()),
			Community:  dataset.Community(dec.uvarint()),
			Label:      int(dec.varint()),
			MedoidHash: phash.Hash(dec.uint64()),
		}}
		cr.info.Images = int(dec.uvarint())
		cr.info.DistinctHashes = int(dec.uvarint())
		cr.info.Racist = dec.bool()
		cr.info.Political = dec.bool()
		nMatches := int(dec.uvarint())
		for j := 0; j < nMatches && dec.err == nil; j++ {
			cr.matches = append(cr.matches, matchRaw{
				name:          dec.string(),
				matches:       int(dec.uvarint()),
				matchFraction: dec.float64(),
				meanDistance:  dec.float64(),
			})
		}
		cr.rep = dec.string()
		clusters = append(clusters, cr)
	}
	if dec.err != nil {
		return nil, fmt.Errorf("pipeline: reading snapshot: %w", dec.err)
	}

	// Verify the payload checksum before trusting (or validating) any of it.
	want := crc.Sum32()
	var crcbuf [4]byte
	if _, err := io.ReadFull(br, crcbuf[:]); err != nil {
		return nil, fmt.Errorf("pipeline: reading snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcbuf[:]); got != want {
		return nil, fmt.Errorf("pipeline: snapshot checksum mismatch (stored %08x, computed %08x): stream corrupt", got, want)
	}

	// Validation and resolution phase: the stream is intact, so every
	// failure from here on is a genuine semantic mismatch (wrong site,
	// incompatible producer), not corruption.
	for _, cr := range comms {
		if !cr.c.Valid() {
			return nil, fmt.Errorf("pipeline: snapshot names invalid community %d", int(cr.c))
		}
		b.PerCommunity[cr.c] = cr.s
	}
	for _, cr := range clusters {
		ci := cr.info
		for _, m := range cr.matches {
			em := annotate.EntryMatch{
				Matches:       m.matches,
				MatchFraction: m.matchFraction,
				MeanDistance:  m.meanDistance,
			}
			if em.Entry = site.Entry(m.name); em.Entry == nil {
				return nil, fmt.Errorf("pipeline: snapshot references entry %q not on the annotation site (wrong site, or filtered differently than at build time)", m.name)
			}
			ci.Annotation.Matches = append(ci.Annotation.Matches, em)
		}
		if cr.rep != "" {
			if ci.Annotation.Representative = site.Entry(cr.rep); ci.Annotation.Representative == nil {
				return nil, fmt.Errorf("pipeline: snapshot references entry %q not on the annotation site", cr.rep)
			}
		}
		if ci.ID != len(b.Clusters) {
			return nil, fmt.Errorf("pipeline: snapshot cluster %d carries ID %d (stream reordered or corrupt)", len(b.Clusters), ci.ID)
		}
		b.Clusters = append(b.Clusters, ci)
	}

	if reconfig != nil {
		reconfig(&b.Config)
	}
	if err := b.Config.Validate(); err != nil {
		return nil, err
	}
	b.progress = progress
	b.buildStats.Workers = parallel.Workers(b.Config.Workers)

	// Rebuild the medoid index — the only compute on the load path. The
	// single load stage event is the observable proof that Steps 2-5 never
	// ran: a loaded engine's stats carry StageLoad where a built engine's
	// carry StageCluster and StageAnnotate.
	em := emitter{stats: &b.buildStats, progress: progress}
	stageStart := em.start(StageLoad)
	annotated, err := b.buildIndex()
	if err != nil {
		return nil, err
	}
	em.done(StageLoad, stageStart, len(b.Clusters))

	fringeImages := 0
	for _, s := range b.PerCommunity {
		fringeImages += s.Images
	}
	b.buildStats.FringeImages = fringeImages
	b.buildStats.Clusters = len(b.Clusters)
	b.buildStats.AnnotatedClusters = annotated
	b.buildWall = since(start)
	return b, nil
}

// --- delta snapshots ---------------------------------------------------------

// Delta snapshots are the journal of the streaming ingest path: each frame
// records one accepted batch of posts, layered on top of the base MEMESNAP.
// A delta segment file is a sequence of self-contained frames — magic +
// version header, varint-coded payload, CRC-32 trailer per frame — so an
// append that dies mid-frame corrupts only that frame and is rejected loudly
// on replay. FromSeq chains frames: it is the total number of posts
// journaled before the frame, so replay can detect gaps and skip frames
// already folded into a compacted base snapshot.

// deltaMagic identifies a delta frame.
var deltaMagic = [8]byte{'M', 'E', 'M', 'E', 'D', 'E', 'L', 'T'}

// deltaVersion is the current delta frame format version.
const deltaVersion uint32 = 1

// Delta is one ingested batch of posts plus its position in the journal.
type Delta struct {
	// FromSeq is the number of posts journaled before this frame.
	FromSeq uint64
	// Posts are the batch's posts, in ingest order.
	Posts []dataset.Post
}

// SaveDelta appends one self-contained delta frame to w.
func SaveDelta(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(deltaMagic[:]); err != nil {
		return fmt.Errorf("pipeline: writing delta header: %w", err)
	}
	var verbuf [4]byte
	binary.LittleEndian.PutUint32(verbuf[:], deltaVersion)
	if _, err := bw.Write(verbuf[:]); err != nil {
		return fmt.Errorf("pipeline: writing delta header: %w", err)
	}

	crc := crc32.NewIEEE()
	enc := &snapEncoder{w: io.MultiWriter(bw, crc)}
	enc.uvarint(d.FromSeq)
	enc.uvarint(uint64(len(d.Posts)))
	for i := range d.Posts {
		p := &d.Posts[i]
		enc.varint(p.ID)
		enc.uvarint(uint64(p.Community))
		enc.string(p.Subreddit)
		enc.varint(p.Timestamp.UnixNano())
		enc.bool(p.HasImage)
		enc.uint64(p.Hash)
		enc.varint(int64(p.Score))
		enc.varint(int64(p.TruthMeme))
		enc.varint(int64(p.TruthRoot))
	}
	if enc.err != nil {
		return fmt.Errorf("pipeline: writing delta frame: %w", enc.err)
	}

	var crcbuf [4]byte
	binary.LittleEndian.PutUint32(crcbuf[:], crc.Sum32())
	if _, err := bw.Write(crcbuf[:]); err != nil {
		return fmt.Errorf("pipeline: writing delta checksum: %w", err)
	}
	return bw.Flush()
}

// maxDeltaPosts caps the per-frame pre-allocation so a corrupt count cannot
// trigger a huge allocation before the CRC check rejects the frame.
const maxDeltaPosts = 1 << 16

// ReadDeltas reads every delta frame from r until a clean EOF. A stream that
// ends mid-frame, fails a frame checksum, or names an invalid community is
// rejected with an error; whatever parsed before the bad frame is discarded
// so callers never act on half a journal.
func ReadDeltas(r io.Reader) ([]Delta, error) {
	br := bufio.NewReader(r)
	var out []Delta
	for {
		var header [12]byte
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("pipeline: reading delta frame %d header: %w", len(out), err)
		}
		if [8]byte(header[:8]) != deltaMagic {
			return nil, fmt.Errorf("pipeline: delta frame %d: not a delta stream (bad magic)", len(out))
		}
		if v := binary.LittleEndian.Uint32(header[8:12]); v != deltaVersion {
			return nil, fmt.Errorf("pipeline: delta frame %d: unsupported version %d (supported: %d)", len(out), v, deltaVersion)
		}

		crc := crc32.NewIEEE()
		dec := &snapDecoder{r: br, crc: crc}
		d := Delta{FromSeq: dec.uvarint()}
		n := int(dec.uvarint())
		if dec.err == nil && n > 0 {
			capHint := n
			if capHint > maxDeltaPosts {
				capHint = maxDeltaPosts
			}
			d.Posts = make([]dataset.Post, 0, capHint)
		}
		for i := 0; i < n && dec.err == nil; i++ {
			var p dataset.Post
			p.ID = dec.varint()
			p.Community = dataset.Community(dec.uvarint())
			p.Subreddit = dec.string()
			p.Timestamp = timeFromUnixNano(dec.varint())
			p.HasImage = dec.bool()
			p.Hash = dec.uint64()
			p.Score = int(dec.varint())
			p.TruthMeme = int(dec.varint())
			p.TruthRoot = int(dec.varint())
			d.Posts = append(d.Posts, p)
		}
		if dec.err != nil {
			return nil, fmt.Errorf("pipeline: reading delta frame %d: %w", len(out), dec.err)
		}

		// Verify the frame checksum before validating any of it.
		want := crc.Sum32()
		var crcbuf [4]byte
		if _, err := io.ReadFull(br, crcbuf[:]); err != nil {
			return nil, fmt.Errorf("pipeline: reading delta frame %d checksum: %w", len(out), err)
		}
		if got := binary.LittleEndian.Uint32(crcbuf[:]); got != want {
			return nil, fmt.Errorf("pipeline: delta frame %d checksum mismatch (stored %08x, computed %08x): stream corrupt", len(out), got, want)
		}
		for i := range d.Posts {
			if !d.Posts[i].Community.Valid() {
				return nil, fmt.Errorf("pipeline: delta frame %d post %d names invalid community %d", len(out), i, int(d.Posts[i].Community))
			}
		}
		out = append(out, d)
	}
}

// SpliceDeltas orders frames by journal position and splices their posts
// into one contiguous stream starting at position `from` — typically the
// sequence a compacted base snapshot already folds, or 0 for a plain base.
// Frames fully below `from` are skipped (already folded); overlapping frames
// contribute only their uncovered tail (compaction rewrites the journal
// head, so a crash between the rewrite and the old-segment cleanup leaves
// benign overlaps); a frame starting beyond the covered position is a gap
// and rejects the journal. Returns the spliced posts and the total sequence
// covered.
func SpliceDeltas(frames []Delta, from uint64) ([]dataset.Post, uint64, error) {
	ordered := make([]Delta, len(frames))
	copy(ordered, frames)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].FromSeq < ordered[j].FromSeq })
	covered := from
	var posts []dataset.Post
	for _, fr := range ordered {
		end := fr.FromSeq + uint64(len(fr.Posts))
		if end <= covered {
			continue
		}
		if fr.FromSeq > covered {
			return nil, 0, fmt.Errorf("pipeline: delta journal gap: frame starts at %d but only %d posts are covered", fr.FromSeq, covered)
		}
		posts = append(posts, fr.Posts[covered-fr.FromSeq:]...)
		covered = end
	}
	return posts, covered, nil
}

// timeFromUnixNano reconstructs a delta timestamp in UTC, so a post round-
// tripped through a delta frame compares equal regardless of the local zone.
func timeFromUnixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// --- minimal codec helpers ---------------------------------------------------

// snapEncoder writes the primitive snapshot vocabulary, latching the first
// error so call sites stay linear.
type snapEncoder struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *snapEncoder) write(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *snapEncoder) uvarint(v uint64) { e.write(e.buf[:binary.PutUvarint(e.buf[:], v)]) }
func (e *snapEncoder) varint(v int64)   { e.write(e.buf[:binary.PutVarint(e.buf[:], v)]) }

func (e *snapEncoder) uint64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.write(e.buf[:8])
}

func (e *snapEncoder) float64(v float64) { e.uint64(math.Float64bits(v)) }

func (e *snapEncoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.write([]byte{b})
}

func (e *snapEncoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.write([]byte(s))
}

// snapDecoder mirrors snapEncoder; every read also feeds the CRC so the
// trailing checksum covers exactly the bytes consumed.
type snapDecoder struct {
	r   *bufio.Reader
	crc io.Writer
	err error
}

// maxSnapshotString bounds decoded string lengths so a corrupt length prefix
// cannot trigger a huge allocation before the CRC check is reached.
const maxSnapshotString = 1 << 20

func (d *snapDecoder) readByte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	d.crc.Write([]byte{b})
	return b
}

func (d *snapDecoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
		return
	}
	d.crc.Write(p)
}

func (d *snapDecoder) uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		b := d.readByte()
		if d.err != nil {
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift >= 64 {
			d.err = errors.New("uvarint overflows 64 bits")
			return 0
		}
	}
}

func (d *snapDecoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *snapDecoder) uint64() uint64 {
	var buf [8]byte
	d.read(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *snapDecoder) float64() float64 { return math.Float64frombits(d.uint64()) }

func (d *snapDecoder) bool() bool { return d.readByte() != 0 }

func (d *snapDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxSnapshotString {
		d.err = fmt.Errorf("string length %d exceeds limit", n)
		return ""
	}
	buf := make([]byte, n)
	d.read(buf)
	if d.err != nil {
		return ""
	}
	return string(buf)
}

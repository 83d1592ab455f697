package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/phash"
)

// snapTestBuild builds one small corpus engine for the v2 suites.
func snapTestBuild(t testing.TB) (*BuildResult, *dataset.Dataset, *annotate.Site) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	b, err := Build(context.Background(), ds, site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return b, ds, site
}

// TestSnapshotCrossVersionEquivalence is the cross-version acceptance
// criterion: the same build saved as v1 and as v2 loads into engines that
// serve bitwise-identical Associate, Match, and Result output — to each
// other and to the never-persisted build — across index strategies and
// worker counts. It also pins v1→v2 migration: loading a v1 snapshot and
// re-saving emits exactly the bytes a direct v2 save produces.
func TestSnapshotCrossVersionEquivalence(t *testing.T) {
	b, ds, site := snapTestBuild(t)
	ctx := context.Background()
	wantAssoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	wantRes, err := b.Result(ctx)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	var v1buf, v2buf bytes.Buffer
	if err := b.SaveVersion(&v1buf, SnapshotV1); err != nil {
		t.Fatalf("SaveVersion(1): %v", err)
	}
	if err := b.SaveVersion(&v2buf, SnapshotV2); err != nil {
		t.Fatalf("SaveVersion(2): %v", err)
	}
	if bytes.Equal(v1buf.Bytes(), v2buf.Bytes()) {
		t.Fatal("v1 and v2 snapshots are byte-identical; version dispatch is broken")
	}

	for _, strategy := range index.Strategies() {
		for _, workers := range []int{1, 4} {
			reconfig := func(c *Config) { c.Index = strategy; c.Workers = workers }
			for _, v := range []struct {
				name string
				snap []byte
			}{{"v1", v1buf.Bytes()}, {"v2", v2buf.Bytes()}} {
				loaded, err := LoadBuild(bytes.NewReader(v.snap), site, ds, reconfig, nil)
				if err != nil {
					t.Fatalf("%s/%s/w%d: LoadBuild: %v", v.name, strategy, workers, err)
				}
				assoc, err := loaded.Associate(ctx, ds.Posts)
				if err != nil {
					t.Fatalf("%s/%s/w%d: Associate: %v", v.name, strategy, workers, err)
				}
				if !reflect.DeepEqual(assoc, wantAssoc) {
					t.Errorf("%s/%s/w%d: Associate diverges from never-persisted build", v.name, strategy, workers)
				}
				for i := 0; i < len(ds.Posts); i += 7 {
					if !ds.Posts[i].HasImage {
						continue
					}
					h := ds.Posts[i].PHash()
					gm, gok := loaded.Match(h)
					wm, wok := b.Match(h)
					if gok != wok || gm != wm {
						t.Fatalf("%s/%s/w%d: Match(%#x) = (%v,%v), want (%v,%v)", v.name, strategy, workers, h, gm, gok, wm, wok)
					}
				}
				res, err := loaded.Result(ctx)
				if err != nil {
					t.Fatalf("%s/%s/w%d: Result: %v", v.name, strategy, workers, err)
				}
				// The reconfig deliberately changes Index/Workers, which
				// Result.Config echoes; everything else must be identical.
				gotFP, wantFP := resultFingerprint(res), resultFingerprint(wantRes)
				gotFP.Config.Index, gotFP.Config.Workers = "", 0
				wantFP.Config.Index, wantFP.Config.Workers = "", 0
				if !reflect.DeepEqual(gotFP, wantFP) {
					t.Errorf("%s/%s/w%d: Result diverges from never-persisted build", v.name, strategy, workers)
				}
			}
		}
	}

	// Migration: v1 → load → save must emit the exact direct-v2 bytes.
	loaded, err := LoadBuild(bytes.NewReader(v1buf.Bytes()), site, nil, nil, nil)
	if err != nil {
		t.Fatalf("LoadBuild(v1): %v", err)
	}
	var migrated bytes.Buffer
	if err := loaded.Save(&migrated); err != nil {
		t.Fatalf("migrating Save: %v", err)
	}
	if !bytes.Equal(migrated.Bytes(), v2buf.Bytes()) {
		t.Error("v1→v2 migration bytes differ from a direct v2 save")
	}
}

// TestSnapshotV1RejectsEveryTruncation mirrors the exhaustive truncation
// suite for the legacy layout now that Save defaults to v2 (the default-
// format suite in snapshot_test.go covers v2).
func TestSnapshotV1RejectsEveryTruncation(t *testing.T) {
	b, _, site := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.SaveVersion(&buf, SnapshotV1); err != nil {
		t.Fatalf("SaveVersion(1): %v", err)
	}
	snap := buf.Bytes()
	for n := 0; n < len(snap); n++ {
		if _, err := LoadBuild(bytes.NewReader(snap[:n]), site, nil, nil, nil); err == nil {
			t.Fatalf("v1 snapshot truncated to %d of %d bytes loaded successfully", n, len(snap))
		}
	}
	if _, err := LoadBuild(bytes.NewReader(snap), site, nil, nil, nil); err != nil {
		t.Fatalf("untruncated v1 snapshot rejected: %v", err)
	}
}

// TestSnapshotV1RejectsEveryByteFlip mirrors the exhaustive corruption
// suite for the legacy layout.
func TestSnapshotV1RejectsEveryByteFlip(t *testing.T) {
	b, _, site := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.SaveVersion(&buf, SnapshotV1); err != nil {
		t.Fatalf("SaveVersion(1): %v", err)
	}
	snap := buf.Bytes()
	corrupt := make([]byte, len(snap))
	for i := 0; i < len(snap); i++ {
		copy(corrupt, snap)
		corrupt[i] ^= 0xff
		if _, err := LoadBuild(bytes.NewReader(corrupt), site, nil, nil, nil); err == nil {
			t.Fatalf("v1 snapshot with byte %d of %d flipped loaded successfully", i, len(snap))
		}
	}
}

// TestSaveVersionUnsupported pins the version dispatch error.
func TestSaveVersionUnsupported(t *testing.T) {
	b, _, _ := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.SaveVersion(&buf, 3); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("SaveVersion(3) = %v, want unsupported-version error", err)
	}
}

// TestLoadBuildFile exercises the file loader: the mmap'd v2 path and the
// v1 streaming fallback must both serve output identical to the in-memory
// loader, and corruption must fail exactly as loudly.
func TestLoadBuildFile(t *testing.T) {
	b, ds, site := snapTestBuild(t)
	ctx := context.Background()
	wantAssoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	dir := t.TempDir()

	for _, v := range []uint32{SnapshotV1, SnapshotV2} {
		path := filepath.Join(dir, "snap")
		var buf bytes.Buffer
		if err := b.SaveVersion(&buf, v); err != nil {
			t.Fatalf("SaveVersion(%d): %v", v, err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadBuildFile(path, site, nil, nil, nil)
		if err != nil {
			t.Fatalf("LoadBuildFile(v%d): %v", v, err)
		}
		assoc, err := loaded.Associate(ctx, ds.Posts)
		if err != nil {
			t.Fatalf("v%d: Associate: %v", v, err)
		}
		if !reflect.DeepEqual(assoc, wantAssoc) {
			t.Errorf("v%d: file-loaded Associate diverges", v)
		}
		// Only StageLoad ran.
		stages := loaded.Stats().Stages
		if len(stages) != 1 || stages[0].Name != StageLoad {
			t.Errorf("v%d: file load ran stages %v, want [load]", v, stages)
		}

		// Close releases the v2 mapping (a no-op for v1's heap-backed
		// load) and is idempotent either way.
		if err := loaded.Close(); err != nil {
			t.Fatalf("v%d: Close: %v", v, err)
		}
		if err := loaded.Close(); err != nil {
			t.Fatalf("v%d: second Close: %v", v, err)
		}

		// Corrupt one payload byte: the file loader must reject it too.
		bad := append([]byte(nil), buf.Bytes()...)
		bad[len(bad)/2] ^= 0xff
		badPath := filepath.Join(dir, "bad")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBuildFile(badPath, site, nil, nil, nil); err == nil {
			t.Fatalf("v%d: corrupted file loaded successfully", v)
		}
	}

	if _, err := LoadBuildFile(filepath.Join(dir, "missing"), site, nil, nil, nil); err == nil {
		t.Fatal("missing file loaded successfully")
	}
}

// TestV2LoadUsesSerializedTree pins the load contract per strategy: under
// bktree a v2 load must NOT rebuild the index — the sealed flat tree comes
// straight from the snapshot bytes — and a default load serves the
// multi-index, whose fused match path allocates nothing.
func TestV2LoadUsesSerializedTree(t *testing.T) {
	b, ds, site := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	loaded, err := LoadBuild(bytes.NewReader(buf.Bytes()), site, nil, func(c *Config) { c.Index = index.BKTree }, nil)
	if err != nil {
		t.Fatalf("LoadBuild(bktree): %v", err)
	}
	tree, ok := loaded.medoids.(*phash.BKTree)
	if !ok {
		t.Fatalf("bktree load produced %T, want *phash.BKTree", loaded.medoids)
	}
	if !tree.Sealed() {
		t.Fatal("v2-loaded tree is not sealed — it was rebuilt, not loaded")
	}
	if loaded.sq == nil {
		t.Fatal("v2-loaded bktree engine has no scratch query path")
	}

	loaded, err = LoadBuild(bytes.NewReader(buf.Bytes()), site, nil, nil, nil)
	if err != nil {
		t.Fatalf("LoadBuild: %v", err)
	}
	if _, ok := loaded.medoids.(*phash.MultiIndex); !ok {
		t.Fatalf("default-strategy load produced %T, want *phash.MultiIndex", loaded.medoids)
	}
	if loaded.nw == nil {
		t.Fatal("default-strategy load has no fused NearestWithin path")
	}
	if raceEnabled {
		return // race instrumentation allocates inside the measured path
	}
	h := ds.Posts[0].PHash()
	if allocs := testing.AllocsPerRun(100, func() { loaded.Match(h) }); allocs != 0 {
		t.Errorf("default-strategy Match allocates %.1f per run, want 0", allocs)
	}
}

// TestV2LoadWithoutAliasing forces the typed views' explicit-decode
// fallback — the path a big-endian host or a misaligned buffer takes — and
// requires the engine loaded through it to answer Match and Associate and to
// re-save exactly as the zero-copy load does, under every strategy.
func TestV2LoadWithoutAliasing(t *testing.T) {
	b, ds, site := snapTestBuild(t)
	ctx := context.Background()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap := buf.Bytes()
	defer func(old bool) { hostLittle = old }(hostLittle)

	words := make([]uint64, 2)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 16)
	hostLittle = false
	if &v2Hashes(raw, 2)[0] == (*phash.Hash)(unsafe.Pointer(&words[0])) {
		t.Fatal("with hostLittle unset the hash view still aliases the file bytes")
	}

	for _, strategy := range index.Strategies() {
		var loaded [2]*BuildResult
		for i, little := range []bool{true, false} {
			hostLittle = little
			l, err := LoadBuild(bytes.NewReader(snap), site, ds, func(c *Config) { c.Index = strategy }, nil)
			if err != nil {
				t.Fatalf("%s, hostLittle=%v: LoadBuild: %v", strategy, little, err)
			}
			loaded[i] = l
		}
		aliased, decoded := loaded[0], loaded[1]
		want, err := aliased.Associate(ctx, ds.Posts)
		if err != nil {
			t.Fatalf("%s: Associate: %v", strategy, err)
		}
		got, err := decoded.Associate(ctx, ds.Posts)
		if err != nil {
			t.Fatalf("%s: Associate (decoded): %v", strategy, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded load associates differently from the aliased one", strategy)
		}
		for i := 0; i < len(ds.Posts); i += 7 {
			if !ds.Posts[i].HasImage {
				continue
			}
			h := ds.Posts[i].PHash()
			gm, gok := decoded.Match(h)
			wm, wok := aliased.Match(h)
			if gok != wok || gm != wm {
				t.Fatalf("%s: Match(%#x) = (%v,%v) decoded, (%v,%v) aliased", strategy, h, gm, gok, wm, wok)
			}
		}
		var a, d bytes.Buffer
		if err := aliased.Save(&a); err != nil {
			t.Fatalf("%s: Save: %v", strategy, err)
		}
		if err := decoded.Save(&d); err != nil {
			t.Fatalf("%s: Save (decoded): %v", strategy, err)
		}
		if !bytes.Equal(d.Bytes(), a.Bytes()) {
			t.Errorf("%s: decoded load re-saves different bytes from the aliased one", strategy)
		}
	}
}

// TestV2LoadRejectsMalformedTree is the snapshot-level sibling of phash's
// TestNewFlatBKRejectsMalformed: a tree section broken structurally and
// then re-checksummed, so only the structural validation stands between it
// and a query, must fail the load under every strategy — what a file must
// satisfy to load does not depend on which index will serve it.
func TestV2LoadRejectsMalformedTree(t *testing.T) {
	b, _, site := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap := buf.Bytes()
	v, err := v2Open(snap)
	if err != nil {
		t.Fatalf("v2Open: %v", err)
	}
	if v.counts[v2SecTreeDists] < 2 {
		t.Fatal("corpus too small: the tree has no edge to break")
	}
	for _, tc := range []struct {
		name string
		off  uint64 // byte to overwrite
		val  byte
	}{
		{"zero edge distance", v.offs[v2SecTreeDists] + 1, 0},
		{"oversized edge distance", v.offs[v2SecTreeDists] + 1, phash.MaxDistance + 1},
		{"self-loop child span", v.offs[v2SecTreeChild] + 4, 1},
		{"empty id span", v.offs[v2SecTreeIDStart] + 4, 0},
	} {
		bad := bytes.Clone(snap)
		if bad[tc.off] == tc.val {
			t.Fatalf("%s: byte already %d, the case breaks nothing", tc.name, tc.val)
		}
		bad[tc.off] = tc.val
		body := bad[:len(bad)-v2TrailerSize]
		binary.LittleEndian.PutUint32(bad[len(body):], crc32.ChecksumIEEE(body))
		for _, strategy := range append([]index.Strategy{""}, index.Strategies()...) {
			_, err := LoadBuild(bytes.NewReader(bad), site, nil, func(c *Config) { c.Index = strategy }, nil)
			if err == nil {
				t.Errorf("%s: loaded under strategy %q", tc.name, strategy)
			} else if !strings.Contains(err.Error(), "flat tree") {
				t.Errorf("%s under %q: rejected by %q, want the flat-tree validator", tc.name, strategy, err)
			}
		}
	}
}

// TestAssociateAppendMatchesAssociate pins the buffer-reuse API: same
// associations, same order, across reused buffers and cancellation.
func TestAssociateAppendMatchesAssociate(t *testing.T) {
	b, ds, _ := snapTestBuild(t)
	ctx := context.Background()
	want, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	var out []Association
	for round := 0; round < 3; round++ {
		out, err = b.AssociateAppend(ctx, ds.Posts, out[:0])
		if err != nil {
			t.Fatalf("AssociateAppend round %d: %v", round, err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("AssociateAppend round %d diverges from Associate", round)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.AssociateAppend(cancelled, ds.Posts, nil); err == nil {
		t.Fatal("AssociateAppend ignored a cancelled context")
	}
}

// TestSteadyStateZeroAlloc is the serve path's measurable claim, as a test
// so it fails fast anywhere, not just in the CI bench gate: steady-state
// Match and AssociateAppend on a sealed engine allocate nothing, under
// every index strategy.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside the measured paths")
	}
	built, ds, _ := snapTestBuild(t)
	ctx := context.Background()

	hashes := make([]phash.Hash, 0, 64)
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			hashes = append(hashes, ds.Posts[i].PHash())
			if len(hashes) == cap(hashes) {
				break
			}
		}
	}
	for _, strategy := range index.Strategies() {
		b := *built
		b.Config.Index = strategy
		if _, err := b.buildIndex(); err != nil {
			t.Fatalf("%s: buildIndex: %v", strategy, err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			for _, h := range hashes {
				b.Match(h)
			}
		}); allocs != 0 {
			t.Errorf("%s: steady-state Match allocates %.1f per run, want 0", strategy, allocs)
		}

		out, err := b.AssociateAppend(ctx, ds.Posts, nil)
		if err != nil {
			t.Fatalf("%s: AssociateAppend: %v", strategy, err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			var aerr error
			out, aerr = b.AssociateAppend(ctx, ds.Posts, out[:0])
			if aerr != nil {
				t.Fatal(aerr)
			}
		}); allocs != 0 {
			t.Errorf("%s: steady-state AssociateAppend allocates %.1f per run, want 0", strategy, allocs)
		}
	}
}

// BenchmarkSnapshotDecode isolates the pure in-memory decode cost of each
// snapshot version — no file I/O, no index queries — so the v2 O(1)-decode
// claim is measurable apart from the syscall overhead LoadBuildFile adds.
func BenchmarkSnapshotDecode(b *testing.B) {
	bld, ds, site := snapTestBuild(b)
	for _, v := range []struct {
		name    string
		version uint32
	}{{"v1", SnapshotV1}, {"v2", SnapshotV2}} {
		var buf bytes.Buffer
		if err := bld.SaveVersion(&buf, v.version); err != nil {
			b.Fatal(err)
		}
		snap := buf.Bytes()
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(snap)))
			for i := 0; i < b.N; i++ {
				if _, err := LoadBuild(bytes.NewReader(snap), site, ds, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

//go:build faults

package chaos

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/faults"
)

// The workload shape every scenario shares: the live tail is ingested in
// fixed batches with a re-cluster after each, so the Nth hit of any fault
// point lands at a deterministic place in the timeline and the journal can
// only ever cover a batch boundary.
const (
	chaosBatch   = 20
	chaosBatches = 3
)

// fixture regenerates the seeded corpus and carves its tail into live
// ingest traffic. Parent and child both call it: generation is
// deterministic, so the re-exec'd child reconstructs the exact corpus the
// parent later verifies recovery against.
func fixture(t *testing.T) (full, base *memes.Dataset, live []memes.Post, site *memes.AnnotationSite) {
	t.Helper()
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	site, err = ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	cut := len(ds.Posts) - chaosBatch*chaosBatches
	if cut <= 0 {
		t.Fatalf("corpus too small: %d posts", len(ds.Posts))
	}
	return ds, ds.Prefix(cut), ds.Posts[cut:], site
}

// saveBytes serialises an engine for bitwise comparison.
func saveBytes(t *testing.T, eng *memes.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestChaosChildWorkload is the re-exec child: it only runs when the parent
// scenario launches it with CHAOS_CHILD=1, builds the base engine, and
// ingests the live tail batch by batch until the fault armed via
// MEMES_FAULTS kills the process. Completing the loop means the armed crash
// point never fired; the clean exit tells the parent exactly that.
func TestChaosChildWorkload(t *testing.T) {
	if os.Getenv("CHAOS_CHILD") == "" {
		t.Skip("chaos child: only runs re-exec'd by the crash scenarios")
	}
	dir := os.Getenv("CHAOS_DIR")
	if dir == "" {
		t.Fatal("chaos child: CHAOS_DIR not set")
	}
	cfg := memes.IngestConfig{Threshold: 1 << 20, DeltaDir: dir}
	if os.Getenv("CHAOS_COMPACT") == "1" {
		cfg.CompactAfter = 1
	}
	_, base, live, site := fixture(t)
	ctx := context.Background()
	eng, err := memes.NewEngine(ctx, base, site)
	if err != nil {
		t.Fatalf("child NewEngine: %v", err)
	}
	hot := memes.NewHotEngine(eng)
	g, err := memes.NewIngestor(hot, base, site, cfg)
	if err != nil {
		t.Fatalf("child NewIngestor: %v", err)
	}
	defer g.Close()
	for i := 0; i < chaosBatches; i++ {
		batch := live[i*chaosBatch : (i+1)*chaosBatch]
		if _, err := g.Ingest(ctx, batch); err != nil {
			t.Fatalf("child Ingest %d: %v", i, err)
		}
		if err := g.Recluster(ctx); err != nil {
			t.Fatalf("child Recluster %d: %v", i, err)
		}
	}
}

// runChild re-execs the test binary as a crash-scenario child with the given
// fault spec armed and asserts it died with the injected exit code. Returns
// the child's combined output for marker assertions.
func runChild(t *testing.T, dir, spec string, compact bool) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestChaosChildWorkload$", "-test.v")
	env := append(os.Environ(),
		"CHAOS_CHILD=1",
		"CHAOS_DIR="+dir,
		"MEMES_FAULTS="+spec,
	)
	if compact {
		env = append(env, "CHAOS_COMPACT=1")
	}
	cmd.Env = env
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived spec %q — the crash point never fired:\n%s", spec, out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec child: %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != faults.ExitCode {
		t.Fatalf("child exit code = %d, want %d (injected crash):\n%s", code, faults.ExitCode, out)
	}
	return string(out)
}

// verifyRecovery restarts from the crashed child's delta dir exactly the way
// memeserve boots — newest compacted base if one landed (bound to the base
// corpus, as memeserve binds -in), otherwise a fresh base build, then
// journal replay — and asserts the recovered engine is bitwise-identical to
// a from-scratch build over the base corpus plus the journaled prefix of the
// live tail, and that its Result holds exactly those posts. Journal contents, not child acks, are
// the truth recovery is measured against.
func verifyRecovery(t *testing.T, dir string, wantSeq uint64, wantBase, wantTorn bool) {
	t.Helper()
	full, base, _, site := fixture(t)
	ctx := context.Background()

	basePath, baseSeq, haveBase, err := memes.LatestDeltaBase(dir)
	if err != nil {
		t.Fatalf("LatestDeltaBase: %v", err)
	}
	if haveBase != wantBase {
		t.Fatalf("compacted base present = %v, want %v", haveBase, wantBase)
	}
	var eng *memes.Engine
	if haveBase {
		eng, err = memes.LoadEngineFile(basePath, site, memes.WithDataset(base))
	} else {
		eng, err = memes.NewEngine(ctx, base, site)
	}
	if err != nil {
		t.Fatalf("booting recovery engine: %v", err)
	}
	hot := memes.NewHotEngine(eng)
	g, err := memes.NewIngestor(hot, base, site, memes.IngestConfig{Threshold: 1 << 20, DeltaDir: dir})
	if err != nil {
		t.Fatalf("NewIngestor: %v", err)
	}
	defer g.Close()
	if _, err := g.Replay(ctx, baseSeq); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	st := g.Stats()
	if st.Seq != wantSeq {
		t.Fatalf("recovered seq = %d, want %d (the journal's durable coverage)", st.Seq, wantSeq)
	}
	if wantTorn && st.TornTails == 0 {
		t.Error("the crash tore a frame but replay repaired no torn tail")
	}
	if !wantTorn && st.TornTails != 0 {
		t.Errorf("replay repaired %d torn tails; the crash left none", st.TornTails)
	}

	n := len(base.Posts) + int(st.Seq)
	ref, err := memes.NewEngine(ctx, full.Prefix(n), site)
	if err != nil {
		t.Fatalf("reference union build: %v", err)
	}
	if !bytes.Equal(saveBytes(t, hot.Engine()), saveBytes(t, ref)) {
		t.Error("recovered engine diverges bitwise from a from-scratch build over base + journaled posts")
	}
	// The analysis endpoints read the served corpus through Result: it must
	// be base plus every journaled post, whether replay re-clustered or only
	// rebound a base that already folds the journal.
	res, err := hot.Engine().TryResult()
	if err != nil {
		t.Fatalf("recovered engine has no bound corpus: %v", err)
	}
	if got := res.Dataset.Posts; len(got) != n || got[n-1].ID != full.Posts[n-1].ID {
		t.Errorf("recovered Result holds %d posts, want base + %d journaled = %d", len(got), st.Seq, n)
	}

	// The repaired journal must also support further appends: one more batch
	// through the recovered ingestor keeps the determinism contract.
	extra := full.Posts[n:]
	if len(extra) > chaosBatch {
		extra = extra[:chaosBatch]
	}
	if len(extra) > 0 {
		if _, err := g.Ingest(ctx, extra); err != nil {
			t.Fatalf("post-recovery Ingest: %v", err)
		}
		if err := g.Recluster(ctx); err != nil {
			t.Fatalf("post-recovery Recluster: %v", err)
		}
		ref2, err := memes.NewEngine(ctx, full.Prefix(n+len(extra)), site)
		if err != nil {
			t.Fatalf("post-recovery reference build: %v", err)
		}
		if !bytes.Equal(saveBytes(t, hot.Engine()), saveBytes(t, ref2)) {
			t.Error("post-recovery ingest diverges: the repaired journal poisoned later appends")
		}
	}
}

// TestChaosCrashRecovery is the tentpole acceptance suite: every armed
// crash point kills the child process mid-operation, and a restart replays
// the journal to bitwise-identical engine state. The after= offsets are
// deterministic because the workload is: appends happen once per batch, and
// compaction/publish/swap fire inside the first re-cluster.
func TestChaosCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash scenarios are not -short friendly")
	}
	scenarios := []struct {
		name string
		spec string
		// compact runs the child with CompactAfter=1 so the compaction
		// crash sites are reached inside the first re-cluster.
		compact  bool
		wantSeq  uint64 // journal coverage a restart must recover
		wantBase bool   // a compacted base snapshot survived the crash
		wantTorn bool   // replay must repair a torn tail
	}{
		// Dies entering the second batch's append: nothing of batch 2
		// reached the journal.
		{name: "journal-append-write", spec: "journal.append.write=exit,after=2", wantSeq: 20},
		// Dies after the second frame was written and fsynced but before
		// the caller was acked: the frame is durable and replay must
		// surface it — journal contents, not acks, are truth.
		{name: "journal-append-sync", spec: "journal.append.sync=exit,after=2", wantSeq: 40},
		// Dies halfway through writing the second frame: replay must
		// salvage frame 1, truncate the torn tail, and keep appending.
		{name: "journal-torn-tail", spec: "journal.append.write=torn,then=exit,after=2", wantSeq: 20, wantTorn: true},
		// Compaction dies before/while writing the base snapshot: no base
		// lands, the sealed journal alone recovers the state.
		{name: "snapshot-write", spec: "snapshot.write=exit", compact: true, wantSeq: 20},
		// Compaction dies after the base temp file synced but before the
		// rename: the synced temp is invisible, recovery sees no base.
		{name: "snapshot-rename", spec: "snapshot.rename=exit", compact: true, wantSeq: 20},
		// Compaction dies after base + merged head landed but before the
		// old segments were removed: replay tolerates the overlap.
		{name: "compact-cleanup", spec: "compact.cleanup=exit", compact: true, wantSeq: 20, wantBase: true},
		// Dies after the rebuild, before publishing it: the sealed journal
		// already covers the batch.
		{name: "recluster-publish", spec: "recluster.publish=exit", wantSeq: 20},
		// Dies inside HotEngine.Swap itself: the new generation was built
		// but never became visible.
		{name: "engine-swap", spec: "engine.swap=exit", wantSeq: 20},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			out := runChild(t, dir, sc.spec, sc.compact)
			point, _, _ := strings.Cut(sc.spec, "=")
			if !strings.Contains(out, "faults: injected exit at "+point) {
				t.Fatalf("child output carries no injection marker for %s:\n%s", point, out)
			}
			verifyRecovery(t, dir, sc.wantSeq, sc.wantBase, sc.wantTorn)
		})
	}
}

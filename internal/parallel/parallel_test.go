package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Fatalf("Workers(-5) = %d, want %d", got, want)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		const n = 1000
		counts := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	// n = 0 must not call fn.
	For(0, 4, func(i int) { t.Fatal("fn called for empty range") })
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := Map(50, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: Map[%d] = %d", workers, i, v)
			}
		}
	}
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map over empty range returned %v", got)
	}
}

func TestMapErr(t *testing.T) {
	got, err := MapErr(10, 4, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("MapErr[%d] = %d", i, v)
		}
	}
	// The lowest-index error wins regardless of scheduling.
	for _, workers := range []int{1, 8} {
		_, err := MapErr(20, workers, func(i int) (int, error) {
			if i == 3 || i == 17 {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail 3" {
			t.Fatalf("workers=%d: got err %v, want fail 3", workers, err)
		}
	}
	if _, err := MapErr(1, 1, func(i int) (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestChunkSize(t *testing.T) {
	if got := ChunkSize(0, 4); got != 1 {
		t.Fatalf("ChunkSize(0, 4) = %d", got)
	}
	if got := ChunkSize(100, 4); got != 7 {
		t.Fatalf("ChunkSize(100, 4) = %d", got)
	}
	// Chunks must cover the range: chunk*ceil(n/chunk) >= n.
	for _, n := range []int{1, 5, 99, 1024} {
		for _, w := range []int{1, 3, 16} {
			c := ChunkSize(n, w)
			if c < 1 || (n+c-1)/c*c < n {
				t.Fatalf("ChunkSize(%d, %d) = %d does not cover range", n, w, c)
			}
		}
	}
}

func TestMapChunksOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 137
		got := MapChunks(n, workers, func(lo, hi int) []int {
			var out []int
			for i := lo; i < hi; i++ {
				if i%3 == 0 { // filtering inside a chunk keeps global order
					out = append(out, i)
				}
			}
			return out
		})
		var want []int
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: MapChunks = %v, want %v", workers, got, want)
		}
	}
	if got := MapChunks(0, 4, func(lo, hi int) []int { return []int{1} }); got != nil {
		t.Fatalf("MapChunks over empty range returned %v", got)
	}
}

func TestCtxVariantsMatchPlainOnLiveContext(t *testing.T) {
	ctx := context.Background()
	got, err := MapCtx(ctx, 50, 4, func(i int) int { return i * 3 })
	if err != nil {
		t.Fatal(err)
	}
	if want := Map(50, 4, func(i int) int { return i * 3 }); !reflect.DeepEqual(got, want) {
		t.Fatal("MapCtx diverges from Map on a live context")
	}
	chunked, err := MapChunksCtx(ctx, 137, 3, func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	})
	if err != nil || len(chunked) != 137 {
		t.Fatalf("MapChunksCtx = (%d items, %v)", len(chunked), err)
	}
	if err := ForCtx(ctx, 0, 4, func(i int) { t.Fatal("fn called for empty range") }); err != nil {
		t.Fatalf("ForCtx over empty range: %v", err)
	}
}

func TestCtxVariantsStopOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		if err := ForCtx(ctx, 1000, workers, func(i int) { calls.Add(1) }); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: ForCtx err = %v, want Canceled", workers, err)
		}
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: %d calls ran on a pre-cancelled context", workers, calls.Load())
		}
		if out, err := MapCtx(ctx, 1000, workers, func(i int) int { return i }); out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: MapCtx = (%v, %v)", workers, out, err)
		}
		if out, err := MapErrCtx(ctx, 1000, workers, func(i int) (int, error) { return i, nil }); out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: MapErrCtx = (%v, %v)", workers, out, err)
		}
		if out, err := MapChunksCtx(ctx, 1000, workers, func(lo, hi int) []int { return []int{lo} }); out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: MapChunksCtx = (%v, %v)", workers, out, err)
		}
	}
}

// TestForCtxCancelMidRun cancels from inside fn and asserts the promise
// ForCtx makes: a worker checks ctx before each call, so once cancel() has
// returned each worker starts at most one more call (the one it may have
// picked up just before), and no goroutine is left behind. Counting every
// call instead would race with how many calls the other workers finish
// while cancel() itself runs.
func TestForCtxCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, workers = 100000, 4
	var calls, late atomic.Int64
	var cancelled atomic.Bool
	err := ForCtx(ctx, n, workers, func(i int) {
		if cancelled.Load() {
			late.Add(1)
		}
		if calls.Add(1) == 10 {
			cancel()
			cancelled.Store(true)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx err = %v, want Canceled", err)
	}
	if l := late.Load(); l > workers {
		t.Fatalf("%d calls started after cancel() returned, want <= %d (one per worker)", l, workers)
	}
	// A worker calls wg.Done before its goroutine has exited, so a worker
	// may still be on its way out when ForCtx returns: wait for the exits.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		return MapChunks(500, workers, func(lo, hi int) []int {
			var out []int
			for i := lo; i < hi; i++ {
				out = append(out, i*7%13)
			}
			return out
		})
	}
	base := run(1)
	for _, w := range []int{2, 4, 16} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverges from workers=1", w)
		}
	}
}

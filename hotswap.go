package memes

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/memes-pipeline/memes/internal/faults"
)

// HotEngine is an atomic handle over a resident *Engine that lets a serving
// process replace the artifact underneath live traffic — the operational
// move the paper's regime implies: the annotated-cluster snapshot is rebuilt
// offline on a schedule while the serving fleet keeps answering queries, so
// a fresh build must take over without dropping a single request.
//
// The swap discipline is pin-per-request: callers obtain the current engine
// once with Pin or Engine (the query pass-throughs pin internally) and use
// that pointer for the whole request, so every request observes exactly one
// engine generation even while Swap runs concurrently. Engines are immutable
// after construction, so the old generation keeps serving its in-flight
// requests to completion while new requests land on the replacement; nothing
// blocks, nothing is torn down underneath a reader.
//
// The engine pointer and its generation number live in one atomically
// swapped pair, so Pin always returns a consistent (engine, generation)
// view: a reader can never see the new engine with the old generation or
// vice versa.
//
// The zero HotEngine is not usable; construct with NewHotEngine.
type HotEngine struct {
	p atomic.Pointer[engineGen]
}

// engineGen is the atomically published (engine, generation) pair, with
// the time it was published.
type engineGen struct {
	eng *Engine
	gen uint64
	at  time.Time
}

// publishTime stamps a generation as it is published.
//
//memes:nondet the publish time is reported (statsz loaded_at), never served
func publishTime() time.Time { return time.Now() }

// NewHotEngine returns a handle serving queries from eng (generation 1).
func NewHotEngine(eng *Engine) *HotEngine {
	h := &HotEngine{}
	h.p.Store(&engineGen{eng: eng, gen: 1, at: publishTime()})
	return h
}

// Pin atomically snapshots the current engine and its generation. The
// returned engine stays valid — and keeps serving identical results — for as
// long as the caller holds it, even across any number of concurrent Swaps;
// use one pinned engine per request so the request never straddles
// generations.
func (h *HotEngine) Pin() (*Engine, uint64) {
	s := h.p.Load()
	return s.eng, s.gen
}

// Published is Pin plus the time the pinned generation was published: when
// NewHotEngine or the Swap that installed it ran. All three come from one
// atomic load, so the time always belongs to the generation returned.
func (h *HotEngine) Published() (eng *Engine, gen uint64, at time.Time) {
	s := h.p.Load()
	return s.eng, s.gen, s.at
}

// Engine pins the current engine; see Pin.
func (h *HotEngine) Engine() *Engine { return h.p.Load().eng }

// Swap atomically replaces the served engine, increments the generation,
// and returns the previous engine. Requests that pinned the old engine
// finish on it; requests that pin after Swap returns see only the
// replacement. The old engine is returned (not closed or invalidated) so
// callers can keep it, compare against it, or let it be collected once its
// in-flight requests drain.
func (h *HotEngine) Swap(eng *Engine) (old *Engine) {
	// Crash site for the chaos harness: dying here models a process lost
	// after the rebuild finished but before the new generation published.
	_ = faults.Inject("engine.swap")
	now := publishTime()
	for {
		cur := h.p.Load()
		if h.p.CompareAndSwap(cur, &engineGen{eng: eng, gen: cur.gen + 1, at: now}) {
			return cur.eng
		}
	}
}

// Generation returns the swap count: 1 for the engine NewHotEngine was
// given, incremented by every Swap. Because the pair is published
// atomically, two Pin calls returning the same generation are guaranteed to
// have returned the same engine.
func (h *HotEngine) Generation() uint64 { return h.p.Load().gen }

// Match pins the current engine and runs Engine.Match on it.
func (h *HotEngine) Match(ctx context.Context, hash Hash) (Match, bool, error) {
	return h.Engine().Match(ctx, hash)
}

// Package index defines the pluggable medoid-index layer of the serve path:
// the MedoidIndex interface every Step 6 search structure implements, and a
// registry of named strategies the pipeline configuration selects among.
//
// The paper runs Step 6 — associating every post image with a fixed set of
// annotated cluster medoids — on a GPU-backed pairwise comparison engine.
// This repository replaces it with exact nearest-neighbour indexes over
// 64-bit perceptual hashes; all registered strategies return identical match
// sets for identical inserts, so swapping strategies changes only the cost
// profile, never the pipeline output. The index is rebuilt from medoid
// hashes whenever an engine is constructed or loaded from a snapshot, which
// keeps persisted engines strategy-agnostic.
package index

import (
	"fmt"
	"sort"
	"sync"

	"github.com/memes-pipeline/memes/internal/phash"
)

// MedoidIndex is an exact radius/nearest-neighbour index over 64-bit
// perceptual hashes with the Hamming distance as metric. Implementations
// need not support concurrent mutation, but concurrent queries after all
// inserts are complete must be safe — that is the build-once / query-many
// contract the engine relies on.
type MedoidIndex interface {
	// Insert adds a hash with an associated item identifier. Duplicate
	// hashes are merged: a radius or nearest query returns one match per
	// distinct hash carrying every ID inserted for it.
	Insert(h phash.Hash, id int64)
	// Radius returns all stored hashes within Hamming distance radius of q,
	// together with their item IDs. Results may be returned in any order;
	// the match set (hashes, distances, ID multiset) must equal what a
	// linear scan produces.
	Radius(q phash.Hash, radius int) []phash.Match
	// Nearest returns the stored hash closest to q. The boolean is false
	// when the index is empty.
	Nearest(q phash.Hash) (phash.Match, bool)
	// Len returns the number of (hash, id) pairs inserted.
	Len() int
	// Walk visits every distinct stored hash with its IDs in unspecified
	// order. Returning false from fn stops the walk early.
	Walk(fn func(h phash.Hash, ids []int64) bool)
}

// WorkerBound is implemented by indexes whose queries fan work out
// internally (ShardedBK). The pipeline calls SetWorkers with its configured
// worker bound right after construction, so one Config.Workers
// knob governs every stage including per-query index parallelism; n == 0
// means GOMAXPROCS, n == 1 means fully sequential queries. Implementations
// must serve identical results for any value.
type WorkerBound interface {
	SetWorkers(n int)
}

// Sealer is implemented by indexes that can compile themselves into an
// immutable, query-optimised form once all inserts are done (BKTree and
// ShardedBK flatten their pointer trees into contiguous arrays, MultiIndex
// builds its band table). The pipeline calls Seal after the last Insert;
// sealing must not change any query result — bitwise-identical output is
// part of the contract. Insert after Seal may panic.
type Sealer interface {
	Seal()
}

// ScratchQuerier is implemented by indexes that can answer radius queries
// through caller-owned scratch, allocating nothing in steady state. The
// returned slice aliases s and is valid until the next query through the
// same scratch. RadiusScratch must return the same matches in the same
// order as Radius.
type ScratchQuerier interface {
	RadiusScratch(q phash.Hash, radius int, s *phash.Scratch) []phash.Match
}

// NearestWithiner is implemented by indexes that answer Step 6 in one
// pass: the id of the closest stored pair within radius of q and its
// distance, ties to the lowest id, ok false when nothing is that close —
// what a caller would reduce a Radius result to, with no match set
// materialised and no scratch needed.
type NearestWithiner interface {
	NearestWithin(q phash.Hash, radius int) (id int64, dist int, ok bool)
}

// Strategy names a registered MedoidIndex implementation. The zero value
// selects the default strategy.
type Strategy string

// The built-in strategies.
const (
	// BKTree is a Burkhard-Keller tree: one shared metric tree, no
	// per-query parallelism. At the pipeline's radius of 8 it visits most
	// of its nodes, which is why it is no longer the default.
	BKTree Strategy = "bktree"
	// MultiIndex is multi-index hashing: one flat table of eight 8-bit
	// bands over the distinct hashes, probed with the substring bound below
	// radius 16 and scanned linearly from there. The default.
	MultiIndex Strategy = "multiindex"
	// Sharded partitions hashes across per-shard BK-trees and fans radius
	// queries out across the shards in parallel.
	Sharded Strategy = "sharded"
)

// Default is the strategy used when none is configured.
const Default = MultiIndex

// Every built-in implementation must satisfy the interface; the one index
// with internal query fan-out must also be worker-bounded.
var (
	_ MedoidIndex = (*phash.BKTree)(nil)
	_ MedoidIndex = (*phash.MultiIndex)(nil)
	_ MedoidIndex = (*ShardedBK)(nil)
	_ WorkerBound = (*ShardedBK)(nil)

	// Every built-in seals into flat arrays and serves the zero-allocation
	// scratch query path; the multi-index also fuses Step 6 into one pass.
	_ Sealer          = (*phash.BKTree)(nil)
	_ Sealer          = (*phash.MultiIndex)(nil)
	_ Sealer          = (*ShardedBK)(nil)
	_ ScratchQuerier  = (*phash.BKTree)(nil)
	_ ScratchQuerier  = (*phash.MultiIndex)(nil)
	_ ScratchQuerier  = (*ShardedBK)(nil)
	_ NearestWithiner = (*phash.MultiIndex)(nil)
)

var (
	mu        sync.RWMutex
	factories = map[Strategy]func() MedoidIndex{}
)

func init() {
	MustRegister(BKTree, func() MedoidIndex { return phash.NewBKTree() })
	MustRegister(MultiIndex, func() MedoidIndex { return phash.NewMultiIndex() })
	MustRegister(Sharded, func() MedoidIndex { return NewShardedBK(0) })
}

// Register adds a named strategy. It fails on an empty name or a duplicate
// registration, so strategies cannot silently shadow each other.
func Register(s Strategy, factory func() MedoidIndex) error {
	if s == "" {
		return fmt.Errorf("index: cannot register empty strategy name")
	}
	if factory == nil {
		return fmt.Errorf("index: nil factory for strategy %q", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := factories[s]; dup {
		return fmt.Errorf("index: strategy %q already registered", s)
	}
	factories[s] = factory
	return nil
}

// MustRegister is Register that panics on error; for init-time registration.
func MustRegister(s Strategy, factory func() MedoidIndex) {
	if err := Register(s, factory); err != nil {
		panic(err)
	}
}

// New constructs an empty index for the strategy; the empty strategy yields
// the Default.
func New(s Strategy) (MedoidIndex, error) {
	if s == "" {
		s = Default
	}
	mu.RLock()
	factory := factories[s]
	mu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("index: unknown strategy %q (registered: %v)", s, Strategies())
	}
	return factory(), nil
}

// Validate reports whether the strategy is registered; the empty strategy is
// valid and means Default.
func (s Strategy) Validate() error {
	if s == "" {
		return nil
	}
	mu.RLock()
	_, ok := factories[s]
	mu.RUnlock()
	if !ok {
		return fmt.Errorf("index: unknown strategy %q (registered: %v)", s, Strategies())
	}
	return nil
}

// Strategies lists every registered strategy in sorted order, for CLIs,
// benchmarks, and error messages.
func Strategies() []Strategy {
	mu.RLock()
	out := make([]Strategy, 0, len(factories))
	for s := range factories {
		out = append(out, s)
	}
	mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

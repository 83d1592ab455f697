package index

import (
	"context"
	"math/bits"

	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// ShardedBK partitions hashes across per-shard BK-trees by a multiplicative
// hash of the stored key, and fans radius queries out across the shards on
// the internal/parallel worker pool. Every distinct hash lives in exactly
// one shard, so per-shard results concatenate into the exact global match
// set with no cross-shard merging.
//
// Sharding buys two things over a single tree: queries exploit multiple
// cores (each shard is searched independently), and each shard's tree is
// shallower, so the triangle-inequality pruning discards candidates earlier.
// Like the other strategies it is exact — the match set is identical to a
// linear scan.
//
// ShardedBK is not safe for concurrent mutation; concurrent queries after
// all inserts are complete are safe.
type ShardedBK struct {
	shards  []*phash.BKTree
	shift   uint // 64 - log2(len(shards)); maps a mixed hash to its shard
	size    int
	workers int // per-query fan-out bound; 0 = GOMAXPROCS (see SetWorkers)
}

// defaultShards is the shard count used when none is given: enough to keep
// every core of a typical serving box busy on one query without slicing the
// trees so thin that per-shard pruning stops paying.
const defaultShards = 16

// NewShardedBK returns an empty sharded index with the given shard count,
// rounded up to a power of two; n <= 0 selects the default. The shard count
// only shapes the cost profile — query results are identical for any value.
func NewShardedBK(n int) *ShardedBK {
	if n <= 0 {
		n = defaultShards
	}
	// Round up to a power of two so shard selection is a shift, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &ShardedBK{
		shards: make([]*phash.BKTree, pow),
		shift:  uint(64 - bits.TrailingZeros(uint(pow))),
	}
	for i := range s.shards {
		s.shards[i] = phash.NewBKTree()
	}
	return s
}

// shardOf maps a hash to its shard. The multiplicative mix (Fibonacci
// hashing) spreads the near-duplicate hashes a meme corpus is full of across
// shards even though they differ in only a few bits.
func (s *ShardedBK) shardOf(h phash.Hash) int {
	if s.shift >= 64 {
		return 0 // single shard
	}
	return int((uint64(h) * 0x9E3779B97F4A7C15) >> s.shift)
}

// SetWorkers bounds the per-query fan-out (0 = GOMAXPROCS), implementing
// WorkerBound so the pipeline's Config.Workers governs this index like
// every other stage. With workers == 1 queries run fully sequentially — no
// goroutines are spawned. Results are identical for any value.
func (s *ShardedBK) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	s.workers = n
}

// Len returns the number of (hash, id) pairs inserted.
func (s *ShardedBK) Len() int { return s.size }

// Insert adds a hash with an associated item identifier to its shard.
func (s *ShardedBK) Insert(h phash.Hash, id int64) {
	s.size++
	s.shards[s.shardOf(h)].Insert(h, id)
}

// Seal compiles every shard's pointer tree into its flat array form (see
// phash.FlatBK). Queries after Seal traverse the contiguous arrays; Insert
// panics. Shard assignment and per-shard result order are unchanged, so
// sealed query output is bitwise identical.
func (s *ShardedBK) Seal() {
	for _, sh := range s.shards {
		sh.Seal()
	}
}

// RadiusScratch answers a radius query through caller-owned scratch,
// walking the shards sequentially and accumulating into one result buffer.
// The concatenation order is shard order — identical to RadiusCtx — so the
// scratch path serves the same bytes as the allocating path. Sequential
// per-shard search trades the fan-out parallelism for a zero-allocation
// steady state; Associate-style callers recover parallelism across posts
// instead of within one query.
//
//memes:noalloc
func (s *ShardedBK) RadiusScratch(q phash.Hash, radius int, sc *phash.Scratch) []phash.Match {
	sc.Reset()
	if s.size == 0 || radius < 0 {
		return sc.Out()
	}
	for _, sh := range s.shards {
		sh.AppendRadius(q, radius, sc)
	}
	return sc.Out()
}

// Radius returns all stored hashes within Hamming distance radius of q. It
// is RadiusCtx without cancellation.
func (s *ShardedBK) Radius(q phash.Hash, radius int) []phash.Match {
	out, _ := s.RadiusCtx(context.Background(), q, radius)
	return out
}

// RadiusCtx returns all stored hashes within Hamming distance radius of q,
// honouring ctx cancellation. The per-shard queries run concurrently on the
// shared worker pool; results are concatenated in shard order, so the output
// is deterministic. On cancellation the partial result is discarded and
// ctx.Err() is returned; no goroutine outlives the call.
func (s *ShardedBK) RadiusCtx(ctx context.Context, q phash.Hash, radius int) ([]phash.Match, error) {
	if s.size == 0 || radius < 0 {
		return nil, ctx.Err()
	}
	parts, err := parallel.MapCtx(ctx, len(s.shards), s.workers, func(i int) []phash.Match {
		return s.shards[i].Radius(q, radius)
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]phash.Match, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Nearest returns the stored hash closest to q. Each shard reports its own
// nearest, one after the other — no fan-out, so a sealed index allocates
// nothing; ties between shards at the same distance are broken by the
// lowest hash value, so the result is deterministic.
//
//memes:noalloc
func (s *ShardedBK) Nearest(q phash.Hash) (best phash.Match, found bool) {
	for _, sh := range s.shards {
		m, ok := sh.Nearest(q)
		if ok && (!found || m.Distance < best.Distance ||
			(m.Distance == best.Distance && m.Hash < best.Hash)) {
			best, found = m, true
		}
	}
	return best, found
}

// Walk visits every distinct stored hash in shard order. Returning false
// from fn stops the walk early.
func (s *ShardedBK) Walk(fn func(h phash.Hash, ids []int64) bool) {
	for _, sh := range s.shards {
		stop := false
		sh.Walk(func(h phash.Hash, ids []int64) bool {
			if !fn(h, ids) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

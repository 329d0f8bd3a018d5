package core

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"sigrec/internal/keccak"
)

// Cache is a size-bounded, concurrency-safe LRU of whole-contract recovery
// results keyed by keccak256 of the runtime bytecode. Deployed bytecode is
// massively duplicated on-chain (the same token/proxy templates deployed
// millions of times), so a fleet scan that dedupes by code hash skips the
// bulk of the symbolic-execution work; hit/miss/eviction counters land in
// the pipeline telemetry. GetOrComputeFill is the one way in: it looks a
// recovery up, coalesces concurrent callers on one bytecode, and stores
// the outcome.
//
// Only complete results are stored: truncated recoveries depend on the
// budget that produced them and are recomputed. Cached Results are shared
// between callers and must be treated as immutable.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	m       map[[32]byte]*list.Element
	flights map[[32]byte]*flight
	// disk, when non-nil, is the persistent tier under the LRU (see
	// TieredCache): consulted on a memory miss before fill/compute,
	// written through on every cacheable store.
	disk ResultStore
}

type cacheEntry struct {
	key [32]byte
	res Result
	err error
}

// flight is one in-progress recovery shared by coalesced GetOrComputeFill
// callers: the winner computes, everyone else waits on done.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// NewCache returns a cache bounded to maxEntries results (minimum 1).
func NewCache(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		max:     maxEntries,
		ll:      list.New(),
		m:       make(map[[32]byte]*list.Element),
		flights: make(map[[32]byte]*flight),
	}
}

// Len returns the current number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Peek returns the memory tier's outcome for the bytecode without counting
// a hit or a miss, and without consulting the disk tier. Its callers read
// the cache for something other than a recovery of their own: the cluster
// peer-fill endpoint serves another shard's lookup (metering it as a local
// hit would distort the shard's own hit rate), and the scanner meters
// dedupe. A peeked entry is still promoted in the LRU — it is a use.
func (c *Cache) Peek(code []byte) (Result, error, bool) {
	key := keccak.Sum256(code)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return Result{}, nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.res, ent.err, true
}

// FillFunc is a cache-fill hook consulted on a miss before compute runs:
// in cluster mode it fetches the result from the shard that owns the
// bytecode's keccak slice, so a hot contract computed once is served
// everywhere without recomputation. ok=false means the fill had nothing
// (not the owner, owner cold, peer unreachable) and compute proceeds.
// ctx is the requesting recovery's context: it bounds the peer call and
// carries the trace/event scope, so the fill hop propagates the request's
// W3C trace context and records a span under the recovery.
type FillFunc func(ctx context.Context, code []byte) (Result, error, bool)

// GetOrComputeFill returns the cached outcome for the bytecode or
// produces it once, coalescing concurrent callers for the same bytecode
// singleflight-style: while one caller works, the others wait and share
// its outcome, so a thundering herd on one contract costs one recovery.
// The winner tries the disk tier, then fill (nil skips it), then compute.
// Complete outcomes are stored; truncated ones and transient errors are
// shared with every waiter but not cached. A filled outcome follows the
// same policy, and fill returning ok=false, or a truncated filled result,
// falls through to compute. ctx is handed to the fill hook only (compute
// owns its own context via its closure), so a coalesced herd's fill runs
// under the winner's context.
//
// Metering: a memory or disk hit counts sigrec_cache_hits_total, a waiter
// sigrec_cache_coalesced_total, and the winner of a miss
// sigrec_cache_misses_total — one of the three per call.
func (c *Cache) GetOrComputeFill(ctx context.Context, code []byte, fill FillFunc, compute func() (Result, error)) (Result, error) {
	key := keccak.Sum256(code)
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.mu.Unlock()
		mCacheHits.Inc()
		return ent.res, ent.err
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		mCacheCoalesced.Inc()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	completed := false
	defer func() {
		// On a compute panic, unblock waiters with a zero result before the
		// panic propagates, so no goroutine is stuck on a dead flight.
		if !completed {
			c.retireFlight(key, f)
		}
	}()
	// The disk tier comes before the peer fill: after a restart the local
	// store answers warm traffic without a network hop or a recompute.
	if res, rerr, ok := c.diskLoad(key); ok {
		mCacheHits.Inc()
		f.res, f.err = res, rerr
		completed = true
		c.storeKey(key, res, rerr)
		c.retireFlight(key, f)
		return res, rerr
	}
	mCacheMisses.Inc()
	if fill != nil {
		if res, err, ok := fill(ctx, code); ok && cacheable(res, err) {
			mCacheFillHits.Inc()
			f.res, f.err = res, err
			completed = true
			c.storeKey(key, res, err)
			c.diskSave(key, res, err)
			c.retireFlight(key, f)
			return res, err
		}
		mCacheFillMisses.Inc()
	}
	f.res, f.err = compute()
	completed = true
	if cacheable(f.res, f.err) {
		c.storeKey(key, f.res, f.err)
		c.diskSave(key, f.res, f.err)
	}
	c.retireFlight(key, f)
	return f.res, f.err
}

// retireFlight publishes the flight's outcome and removes it from the
// inflight map so later callers recompute (or hit the cache).
func (c *Cache) retireFlight(key [32]byte, f *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// cacheable reports whether an outcome may be stored: only complete
// results (truncation depends on the budget that produced it) and only
// the definitive no-dispatcher error.
func cacheable(res Result, err error) bool {
	return !res.Truncated && (err == nil || errors.Is(err, ErrNoFunctions))
}

// storeKey inserts an outcome into the memory tier, evicting the least
// recently used entry when over capacity.
func (c *Cache) storeKey(key [32]byte, res Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value = &cacheEntry{key: key, res: res, err: err}
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, err: err})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
		mCacheEvicted.Inc()
	}
	mCacheEntries.Set(int64(c.ll.Len()))
}

package core

// ResultStore is the disk tier under the in-memory LRU: a persistent
// keccak256-keyed map of recovery outcomes (implemented by
// internal/store). Load reports the persisted result and recovery error
// (nil or ErrNoFunctions) for a key; ok=false means not present — or not
// readable, which is the same thing for a cache. Save persists an outcome;
// failures are surfaced as counters, never as recovery errors.
// Implementations must be safe for concurrent use.
type ResultStore interface {
	Load(key [32]byte) (Result, error, bool)
	Save(key [32]byte, res Result, rerr error) error
}

// TieredCache layers a ResultStore under the in-memory LRU: the embedded
// Cache's GetOrComputeFill goes memory → disk → (peer fill) → compute, the
// last three under one flight per bytecode, and every cacheable outcome is
// written through to both tiers. A disk hit is promoted into memory and
// counts as a cache hit — after a restart the memory tier is empty but the
// hit rate stays warm immediately, with no recomputation and no peer
// traffic for anything the store already holds. The wrapper adds no
// method: callers use its Cache.
type TieredCache struct {
	*Cache
}

// NewTieredCache returns a tiered cache: an LRU bounded to maxEntries
// backed by disk. disk nil degrades to a plain memory cache.
func NewTieredCache(maxEntries int, disk ResultStore) *TieredCache {
	c := NewCache(maxEntries)
	c.disk = disk
	return &TieredCache{Cache: c}
}

// diskLoad consults the disk tier, metering the outcome. Safe on a cache
// with no disk tier.
func (c *Cache) diskLoad(key [32]byte) (Result, error, bool) {
	if c.disk == nil {
		return Result{}, nil, false
	}
	res, rerr, ok := c.disk.Load(key)
	if ok {
		mStoreHits.Inc()
	} else {
		mStoreMisses.Inc()
	}
	return res, rerr, ok
}

// diskSave writes through to the disk tier, metering failures. Safe on a
// cache with no disk tier.
func (c *Cache) diskSave(key [32]byte, res Result, rerr error) {
	if c.disk == nil {
		return
	}
	if err := c.disk.Save(key, res, rerr); err != nil {
		mStoreWriteErrors.Inc()
	}
}

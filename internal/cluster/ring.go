// Package cluster is sigrec's horizontal-scale layer: a consistent-hash
// ring over the bytecode keccak (the result-cache key), a thin stateless
// router that proxies the recovery endpoints to health-checked shard pools
// with circuit breaking, hedged requests, and ring-successor retries, and
// peer cache-fill so a contract computed on its owning shard is served by
// every shard without recomputation.
//
// Sharding is keyed on keccak256 of the runtime bytecode — the same key
// the result cache uses — so each shard owns a slice of the bytecode
// space and cache hit rates survive scale-out: the Nth deployment of a
// popular token template always lands on the shard that already computed
// it.
package cluster

import (
	"encoding/binary"
	"sort"
	"strconv"
	"sync"

	"sigrec/internal/keccak"
)

// vnodes is the virtual-node count per shard. 160 points per shard keeps
// the max/mean ownership ratio within a few percent for small clusters
// while the ring stays tiny (N*160 points, binary-searched). It is fixed
// rather than configurable because the router and every shard's peer-fill
// ring must place keys identically.
const vnodes = 160

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the shard that owns the arc ending there.
type ringPoint struct {
	pos   uint64
	shard int // index into r.shards
}

// Ring is a consistent-hash ring with virtual nodes, keyed on the
// bytecode keccak. It is safe for concurrent use; Add/Remove are O(ring)
// rebuilds (membership changes are rare), lookups are a binary search.
type Ring struct {
	mu     sync.RWMutex
	shards []string // sorted shard ids
	points []ringPoint
}

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{} }

// point hashes one virtual node of a shard onto the circle. keccak keeps
// the package dependency-free and matches the key hash family; the ring
// reads the first 8 bytes big-endian, exactly how Owner reads a key.
func point(shard string, vnode int) uint64 {
	h := keccak.Sum256([]byte(shard + "#" + strconv.Itoa(vnode)))
	return binary.BigEndian.Uint64(h[:8])
}

// Add inserts a shard (id must be unique; re-adding is a no-op).
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.shards {
		if s == shard {
			return
		}
	}
	r.shards = append(r.shards, shard)
	sort.Strings(r.shards)
	r.rebuild()
}

// Remove deletes a shard; removing an unknown id is a no-op.
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.shards {
		if s == shard {
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			r.rebuild()
			return
		}
	}
}

// rebuild regenerates the point list from the member set. Caller holds
// r.mu. Virtual-node positions depend only on (shard id, vnode index), so
// members keep their points across membership changes — the property the
// rebalancing test pins down.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for idx, s := range r.shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pos: point(s, v), shard: idx})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].pos < r.points[b].pos })
}

// Shards returns the current members, sorted.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.shards...)
}

// keyPos maps a keccak key onto the circle.
func keyPos(key [32]byte) uint64 { return binary.BigEndian.Uint64(key[:8]) }

// Owner returns the shard owning the key: the first virtual node at or
// clockwise after the key's position. ok=false on an empty ring.
func (r *Ring) Owner(key [32]byte) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.shards[r.points[r.search(keyPos(key))].shard], true
}

// search returns the index of the first point at or after pos, wrapping
// to 0 past the last point. Caller holds r.mu (read).
func (r *Ring) search(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Sequence returns every shard in ring order starting from the key's
// owner, each exactly once: the owner first, then the successor each
// failed attempt falls back to. The slice is freshly allocated.
func (r *Ring) Sequence(key [32]byte) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.shards))
	seen := make(map[int]bool, len(r.shards))
	for i, n := r.search(keyPos(key)), 0; n < len(r.points) && len(out) < len(r.shards); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}

// PickBounded is the bounded-load variant (Mirrokni et al., "Consistent
// Hashing with Bounded Loads"): walk the key's successor sequence and
// return the first shard whose current load stays under
// ceil(factor * (total+1) / N), so one hot arc cannot bury its owner
// while the rest of the pool idles. factor <= 1 degrades to plain Owner;
// when every shard is at capacity the owner is returned (admission
// control downstream sheds, the ring does not).
func (r *Ring) PickBounded(key [32]byte, load func(shard string) int, factor float64) (string, bool) {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return "", false
	}
	if factor <= 1 || load == nil {
		return seq[0], true
	}
	total := 0
	for _, s := range seq {
		total += load(s)
	}
	limit := int(factor * float64(total+1) / float64(len(seq)))
	if limit < 1 {
		limit = 1
	}
	for _, s := range seq {
		if load(s) < limit {
			return s, true
		}
	}
	return seq[0], true
}

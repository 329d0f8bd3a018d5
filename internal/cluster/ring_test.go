package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"sigrec/internal/keccak"
)

// randomKeys generates n keccak keys the way production keys arise:
// keccak256 over (pseudo-random) bytecode bytes.
func randomKeys(seed int64, n int) [][32]byte {
	r := rand.New(rand.NewSource(seed))
	keys := make([][32]byte, n)
	buf := make([]byte, 64)
	for i := range keys {
		r.Read(buf)
		keys[i] = keccak.Sum256(buf)
	}
	return keys
}

func owners(t *testing.T, r *Ring, keys [][32]byte) []string {
	t.Helper()
	out := make([]string, len(keys))
	for i, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatal("empty ring")
		}
		out[i] = o
	}
	return out
}

// TestRingRebalanceOnAdd is the rebalancing property test: growing the
// cluster from N to N+1 shards must (a) move at most 1/(N+1) + eps of the
// keys and (b) never change the owner of a key the new shard did not
// claim — consistent hashing's whole point, and what keeps cache hit
// rates intact during scale-out.
func TestRingRebalanceOnAdd(t *testing.T) {
	const nKeys = 20000
	keys := randomKeys(1, nKeys)
	for n := 2; n <= 6; n++ {
		r := NewRing()
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("shard%d", i))
		}
		before := owners(t, r, keys)
		newShard := fmt.Sprintf("shard%d", n)
		r.Add(newShard)
		after := owners(t, r, keys)

		moved := 0
		for i := range keys {
			if before[i] != after[i] {
				moved++
				if after[i] != newShard {
					t.Fatalf("N=%d: key %d moved %s -> %s, not to the new shard",
						n, i, before[i], after[i])
				}
			}
		}
		frac := float64(moved) / nKeys
		limit := 1.0/float64(n+1) + 0.10
		if frac > limit {
			t.Errorf("N=%d: add moved %.3f of keys, want <= %.3f", n, frac, limit)
		}
		if moved == 0 {
			t.Errorf("N=%d: new shard claimed no keys", n)
		}
	}
}

// TestRingRebalanceOnRemove: shrinking the cluster moves exactly the dead
// shard's keys — survivors keep every key they owned (the exact property;
// no epsilon needed), and the orphaned slice is about 1/N.
func TestRingRebalanceOnRemove(t *testing.T) {
	const nKeys = 20000
	keys := randomKeys(2, nKeys)
	for n := 3; n <= 6; n++ {
		r := NewRing()
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("shard%d", i))
		}
		before := owners(t, r, keys)
		victim := "shard1"
		r.Remove(victim)
		after := owners(t, r, keys)

		moved := 0
		for i := range keys {
			if before[i] != after[i] {
				if before[i] != victim {
					t.Fatalf("N=%d: key %d owned by survivor %s moved to %s",
						n, i, before[i], after[i])
				}
				moved++
			} else if before[i] == victim {
				t.Fatalf("N=%d: key %d still owned by removed shard", n, i)
			}
		}
		frac := float64(moved) / nKeys
		limit := 1.0/float64(n) + 0.10
		if frac > limit {
			t.Errorf("N=%d: remove moved %.3f of keys, want <= %.3f", n, frac, limit)
		}
	}
}

// TestRingBalance: with virtual nodes, ownership across shards stays
// within a reasonable band of uniform.
func TestRingBalance(t *testing.T) {
	const nKeys = 30000
	keys := randomKeys(3, nKeys)
	r := NewRing()
	shards := []string{"a", "b", "c", "d", "e"}
	for _, s := range shards {
		r.Add(s)
	}
	counts := map[string]int{}
	for _, o := range owners(t, r, keys) {
		counts[o]++
	}
	mean := float64(nKeys) / float64(len(shards))
	for _, s := range shards {
		ratio := float64(counts[s]) / mean
		if ratio < 0.6 || ratio > 1.4 {
			t.Errorf("shard %s owns %.2fx the mean (%d keys)", s, ratio, counts[s])
		}
	}
}

// TestRingSequence: the fallback sequence starts at the owner, visits
// every shard exactly once, and is stable for a given key.
func TestRingSequence(t *testing.T) {
	r := NewRing()
	for _, s := range []string{"a", "b", "c"} {
		r.Add(s)
	}
	key := keccak.Sum256([]byte("bytecode"))
	seq := r.Sequence(key)
	if len(seq) != 3 {
		t.Fatalf("sequence %v, want all 3 shards", seq)
	}
	owner, _ := r.Owner(key)
	if seq[0] != owner {
		t.Errorf("sequence starts at %s, owner is %s", seq[0], owner)
	}
	seen := map[string]bool{}
	for _, s := range seq {
		if seen[s] {
			t.Fatalf("sequence %v repeats %s", seq, s)
		}
		seen[s] = true
	}
}

// TestRingPickBounded: an overloaded owner is skipped for its successor;
// uniform load degrades to plain ownership; a fully saturated ring still
// answers with the owner.
func TestRingPickBounded(t *testing.T) {
	r := NewRing()
	for _, s := range []string{"a", "b", "c"} {
		r.Add(s)
	}
	key := keccak.Sum256([]byte("hot contract"))
	seq := r.Sequence(key)
	owner, succ := seq[0], seq[1]

	loads := map[string]int{owner: 90, succ: 1, seq[2]: 1}
	got, ok := r.PickBounded(key, func(s string) int { return loads[s] }, 1.25)
	if !ok || got != succ {
		t.Errorf("overloaded owner: picked %s, want successor %s", got, succ)
	}

	got, _ = r.PickBounded(key, func(s string) int { return 5 }, 1.25)
	if got != owner {
		t.Errorf("uniform load: picked %s, want owner %s", got, owner)
	}

	got, _ = r.PickBounded(key, func(s string) int { return 1 << 20 }, 1.25)
	if got != owner {
		t.Errorf("saturated ring: picked %s, want owner %s", got, owner)
	}

	got, _ = r.PickBounded(key, nil, 0)
	if got != owner {
		t.Errorf("factor<=1: picked %s, want owner %s", got, owner)
	}
}

// TestRingVNodes pins the ring geometry to 160 virtual nodes per shard:
// every key lands on the shard owning the first of the shards' 160 points
// at or clockwise after it, found here by brute force.
func TestRingVNodes(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	r := NewRing()
	type pt struct {
		pos   uint64
		shard string
	}
	var pts []pt
	for _, s := range shards {
		r.Add(s)
		for v := 0; v < 160; v++ {
			pts = append(pts, pt{point(s, v), s})
		}
	}
	if len(r.points) != len(pts) {
		t.Fatalf("ring has %d points, want %d (160 per shard)", len(r.points), len(pts))
	}
	keys := randomKeys(5, 5000)
	for i, o := range owners(t, r, keys) {
		pos := keyPos(keys[i])
		best, first := pts[0], pts[0]
		found := false
		for _, p := range pts {
			if p.pos < first.pos {
				first = p
			}
			if p.pos >= pos && (!found || p.pos < best.pos) {
				best, found = p, true
			}
		}
		if !found {
			best = first // wrap around
		}
		if o != best.shard {
			t.Fatalf("key %d: owner %s, 160-vnode reference %s", i, o, best.shard)
		}
	}
}

// TestKeyPosMatchesOwnerHash pins the key-to-circle mapping: the first 8
// bytes big-endian, so external tooling can predict placement.
func TestKeyPosMatchesOwnerHash(t *testing.T) {
	key := keccak.Sum256([]byte("x"))
	if keyPos(key) != binary.BigEndian.Uint64(key[:8]) {
		t.Fatal("keyPos changed its mapping")
	}
}

package core

import (
	"context"
	"errors"
	"testing"
)

// TestGetOrComputeFill covers the cache-fill hook: a fill hit is stored
// and served without running compute; a fill miss (or a truncated filled
// result) falls through to compute; later lookups hit the cache.
func TestGetOrComputeFill(t *testing.T) {
	code, _ := compileSig(t, "transfer(address,uint256)")
	filled := Result{Functions: []RecoveredFunction{{}}}

	t.Run("hit skips compute and stores", func(t *testing.T) {
		before := Metrics().Snapshot().Counters
		cache := NewCache(8)
		computed := false
		res, err := cache.GetOrComputeFill(context.Background(), code,
			func(context.Context, []byte) (Result, error, bool) { return filled, nil, true },
			func() (Result, error) { computed = true; return Result{}, nil })
		if err != nil || computed {
			t.Fatalf("err=%v computed=%v", err, computed)
		}
		if len(res.Functions) != 1 {
			t.Fatalf("filled result not returned: %+v", res)
		}
		if cache.Len() != 1 {
			t.Fatalf("filled result not stored (len=%d)", cache.Len())
		}
		after := Metrics().Snapshot().Counters
		if d := after["sigrec_cache_fill_hits_total"] - before["sigrec_cache_fill_hits_total"]; d != 1 {
			t.Errorf("fill hits delta = %d, want 1", d)
		}
		// The stored copy answers later lookups without fill or compute.
		res2, err := cache.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
			t.Fatal("compute ran on a cached key")
			return Result{}, nil
		})
		if err != nil || len(res2.Functions) != 1 {
			t.Fatalf("cached lookup after fill: res=%+v err=%v", res2, err)
		}
	})

	t.Run("miss falls through to compute", func(t *testing.T) {
		before := Metrics().Snapshot().Counters
		cache := NewCache(8)
		res, err := cache.GetOrComputeFill(context.Background(), code,
			func(context.Context, []byte) (Result, error, bool) { return Result{}, nil, false },
			func() (Result, error) { return filled, nil })
		if err != nil || len(res.Functions) != 1 {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		after := Metrics().Snapshot().Counters
		if d := after["sigrec_cache_fill_misses_total"] - before["sigrec_cache_fill_misses_total"]; d != 1 {
			t.Errorf("fill misses delta = %d, want 1", d)
		}
	})

	t.Run("truncated fill result is recomputed", func(t *testing.T) {
		cache := NewCache(8)
		computed := false
		res, err := cache.GetOrComputeFill(context.Background(), code,
			func(context.Context, []byte) (Result, error, bool) { return Result{Truncated: true}, nil, true },
			func() (Result, error) { computed = true; return filled, nil })
		if err != nil || !computed || len(res.Functions) != 1 {
			t.Fatalf("res=%+v err=%v computed=%v", res, err, computed)
		}
	})

	t.Run("filled error outcome follows cacheability", func(t *testing.T) {
		cache := NewCache(8)
		// ErrNoFunctions is definitive and cacheable even via fill.
		res, err := cache.GetOrComputeFill(context.Background(), code,
			func(context.Context, []byte) (Result, error, bool) { return Result{}, ErrNoFunctions, true },
			func() (Result, error) { t.Fatal("compute ran"); return Result{}, nil })
		if !errors.Is(err, ErrNoFunctions) || len(res.Functions) != 0 {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		if cache.Len() != 1 {
			t.Fatalf("definitive error not stored (len=%d)", cache.Len())
		}
	})
}

// TestPeek verifies Peek reads the cache without moving the hit/miss
// counters — the peer-fill serving path must not distort local hit rate.
func TestPeek(t *testing.T) {
	code, _ := compileSig(t, "approve(address,uint256)")
	cache := NewCache(8)
	if _, _, ok := cache.Peek(code); ok {
		t.Fatal("Peek hit on an empty cache")
	}
	if _, err := cache.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
		return Result{Functions: []RecoveredFunction{{}}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	before := Metrics().Snapshot().Counters
	res, err, ok := cache.Peek(code)
	if !ok || err != nil || len(res.Functions) != 1 {
		t.Fatalf("Peek: res=%+v err=%v ok=%v", res, err, ok)
	}
	after := Metrics().Snapshot().Counters
	for _, name := range []string{"sigrec_cache_hits_total", "sigrec_cache_misses_total"} {
		if after[name] != before[name] {
			t.Errorf("%s moved on Peek: %d -> %d", name, before[name], after[name])
		}
	}
}

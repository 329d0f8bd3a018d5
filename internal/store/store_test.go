package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/core"
)

// sampleResult builds a distinct, structurally rich Result for key i.
func sampleResult(i int) core.Result {
	mustType := func(s string) abi.Type {
		t, err := abi.ParseType(s)
		if err != nil {
			panic(err)
		}
		return t
	}
	var sel abi.Selector
	binary.BigEndian.PutUint32(sel[:], uint32(i))
	res := core.Result{
		Functions: []core.RecoveredFunction{{
			Selector:   sel,
			Inputs:     []abi.Type{mustType("uint256"), mustType("bytes"), mustType("address[3]")},
			ParamRules: [][]core.RuleID{{1, 4}, {9}, {12, 13}},
			Language:   core.LangSolidity,
		}},
	}
	res.Rules[1] = uint64(i + 1)
	res.Rules[9] = 2
	return res
}

func sampleKey(i int) [32]byte {
	var k [32]byte
	binary.BigEndian.PutUint64(k[:8], uint64(i))
	k[31] = 0xa5
	return k
}

// render flattens everything observable from a Result for comparison.
func render(res core.Result, rerr error) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "trunc=%v rules=%v err=%v\n", res.Truncated, res.Rules, rerr)
	for _, f := range res.Functions {
		fmt.Fprintf(&b, "%s %s lang=%v trunc=%v rules=%v\n",
			f.Selector.Hex(), f.TypeList(), f.Language, f.Truncated, f.ParamRules)
	}
	return b.String()
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		var rerr error
		if i%7 == 0 {
			rerr = core.ErrNoFunctions
		}
		if err := s.Save(sampleKey(i), sampleResult(i), rerr); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	check := func(s *Store, phase string) {
		t.Helper()
		if s.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", phase, s.Len(), n)
		}
		for i := 0; i < n; i++ {
			var wantErr error
			if i%7 == 0 {
				wantErr = core.ErrNoFunctions
			}
			res, rerr, ok := s.Load(sampleKey(i))
			if !ok {
				t.Fatalf("%s: key %d missing", phase, i)
			}
			if got, want := render(res, rerr), render(sampleResult(i), wantErr); got != want {
				t.Fatalf("%s: key %d mismatch\ngot:\n%s\nwant:\n%s", phase, i, got, want)
			}
		}
		if _, _, ok := s.Load(sampleKey(n + 1)); ok {
			t.Fatalf("%s: phantom key present", phase)
		}
	}
	check(s, "before reopen")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "after reopen")
	if st := s2.Stats(); st.CorruptSkipped != 0 || st.TornTruncated != 0 {
		t.Fatalf("clean reopen reported damage: %+v", st)
	}
}

func TestStoreOverwriteTakesLatest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKey(1)
	if err := s.Save(key, sampleResult(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(key, sampleResult(2), nil); err != nil {
		t.Fatal(err)
	}
	res, _, ok := s.Load(key)
	if !ok || res.Functions[0].Selector != sampleResult(2).Functions[0].Selector {
		t.Fatalf("latest write not served: ok=%v res=%+v", ok, res)
	}
	if st := s.Stats(); st.DeadBytes == 0 {
		t.Fatal("overwrite accounted no dead bytes")
	}
	s.Close()
	// Replay must also resolve to the latest occurrence.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, _, ok = s2.Load(key)
	if !ok || res.Functions[0].Selector != sampleResult(2).Functions[0].Selector {
		t.Fatal("replay did not keep the latest record")
	}
}

// TestStoreTornTailTruncated cuts the final record short at every possible
// byte boundary: reopening must drop exactly the torn record, keep every
// earlier one, and leave a file that appends cleanly.
func TestStoreTornTailTruncated(t *testing.T) {
	build := func(t *testing.T, dir string) (segPath string, wholeLen, lastRecOff int64) {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Save(sampleKey(i), sampleResult(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Segments != 1 {
			t.Fatalf("expected 1 segment, got %d", st.Segments)
		}
		loc := s.index[sampleKey(2)]
		segPath = segmentPath(dir, loc.seg)
		wholeLen = s.active.size
		lastRecOff = loc.off
		s.Close()
		return
	}
	segPath, wholeLen, lastOff := build(t, t.TempDir())
	for cut := lastOff + 1; cut < wholeLen; cut += 7 {
		dir := t.TempDir()
		copySegment(t, segPath, dir)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(segPath)), cut); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if s.Len() != 2 {
			t.Fatalf("cut=%d: Len = %d, want 2 (torn record dropped)", cut, s.Len())
		}
		if st := s.Stats(); st.TornTruncated != 1 {
			t.Fatalf("cut=%d: TornTruncated = %d, want 1", cut, st.TornTruncated)
		}
		for i := 0; i < 2; i++ {
			if _, _, ok := s.Load(sampleKey(i)); !ok {
				t.Fatalf("cut=%d: intact record %d lost", cut, i)
			}
		}
		// The truncated store must accept appends and survive a reopen.
		if err := s.Save(sampleKey(9), sampleResult(9), nil); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		s.Close()
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if s2.Len() != 3 {
			t.Fatalf("cut=%d: reopen Len = %d, want 3", cut, s2.Len())
		}
		if st := s2.Stats(); st.TornTruncated != 0 || st.CorruptSkipped != 0 {
			t.Fatalf("cut=%d: reopen after repair reported damage: %+v", cut, st)
		}
		s2.Close()
	}
}

// TestStoreCorruptRecordSkipped flips payload bytes of an interior record:
// the reopen must skip exactly that record, count it, and serve the rest.
func TestStoreCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Save(sampleKey(i), sampleResult(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	mid := s.index[sampleKey(1)]
	path := segmentPath(dir, mid.seg)
	s.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of the middle record.
	if _, err := f.WriteAt([]byte{0xff}, mid.off+int64(recHeaderLen)+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	if st := s2.Stats(); st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1: %+v", st.CorruptSkipped, st)
	}
	if _, _, ok := s2.Load(sampleKey(1)); ok {
		t.Fatal("corrupt record served")
	}
	for _, i := range []int{0, 2} {
		if _, _, ok := s2.Load(sampleKey(i)); !ok {
			t.Fatalf("record %d after corruption lost", i)
		}
	}
}

// TestStoreUnknownLanguageIsMiss writes a crc-valid record whose function
// carries a language that is neither Solidity nor Vyper ("l":7): the
// validating decode must refuse it, so Load reports a miss, before and
// after a reopen, rather than loading a malformed function.
func TestStoreUnknownLanguageIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := sampleResult(1)
	bad.Functions[0].Language = core.Language(7)
	for i, res := range []core.Result{sampleResult(0), bad} {
		if err := s.Save(sampleKey(i), res, nil); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := EncodeResult(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"l":7`)) {
		t.Fatalf("payload does not carry language 7: %s", payload)
	}
	for pass := 0; pass < 2; pass++ {
		if _, _, ok := s.Load(sampleKey(1)); ok {
			t.Fatalf("pass %d: record with language 7 served", pass)
		}
		if _, _, ok := s.Load(sampleKey(0)); !ok {
			t.Fatalf("pass %d: valid record lost", pass)
		}
		s.Close()
		if s, err = Open(dir, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
}

// TestStoreRotationAndCompaction drives rotation via a tiny segment cap,
// then overwrites enough to trigger compaction; the live set must survive
// with fewer on-disk bytes and a reopen must agree.
func TestStoreRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048, CompactMinDeadBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			if err := s.Save(sampleKey(i), sampleResult(i*10+round), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after heavy overwrite: %+v", st)
	}
	if st.Records != n {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	for i := 0; i < n; i++ {
		res, _, ok := s.Load(sampleKey(i))
		if !ok {
			t.Fatalf("key %d lost after compaction", i)
		}
		want := sampleResult(i*10 + 3)
		if render(res, nil) != render(want, nil) {
			t.Fatalf("key %d: stale value after compaction", i)
		}
	}
	s.Close()
	s2, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reopen Len = %d, want %d", s2.Len(), n)
	}
}

// TestStoreConcurrent hammers Save/Load from many goroutines; run under
// -race this is the store's concurrency audit.
func TestStoreConcurrent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxSegmentBytes: 4096, CompactMinDeadBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := sampleKey(i % 10)
				if err := s.Save(k, sampleResult(i%10), nil); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if res, _, ok := s.Load(k); ok && len(res.Functions) == 0 {
					t.Error("load returned empty result for saved key")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
}

func copySegment(t *testing.T, src, dstDir string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dstDir, filepath.Base(src)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

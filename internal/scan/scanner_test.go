package scan

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/efsd"
	"sigrec/internal/eventlog"
	"sigrec/internal/store"
)

// scanFixture wires a full pipeline around a synthetic chain in a temp
// directory.
type scanFixture struct {
	tmpls  []corpus.DeployedContract
	source *chain.Synthetic
	store  *store.Store
	log    *eventlog.Writer
	cp     *Checkpoint
	resume *Cursor
	dir    string
}

func newScanFixture(t *testing.T, seed int64, blocks uint64) *scanFixture {
	t.Helper()
	tmpls, err := chain.SyntheticTemplates(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            seed,
		Blocks:          blocks,
		DeploysPerBlock: 4,
		ProxyRate:       0.5,
		FacadeShare:     0.3,
		Templates:       chain.TemplateCodes(tmpls),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	w, err := eventlog.New(eventlog.Config{Path: filepath.Join(dir, "events.ndjson")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	cp, resume, ok, err := OpenCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	fx := &scanFixture{tmpls: tmpls, source: src, store: st, log: w, cp: cp, dir: dir}
	if ok {
		fx.resume = &resume
	}
	return fx
}

func (fx *scanFixture) scanner(t *testing.T, mut func(*Config)) *Scanner {
	t.Helper()
	cfg := Config{
		Source:          fx.source,
		Cache:           core.NewTieredCache(256, fx.store).Cache,
		EventLog:        fx.log,
		Checkpoint:      fx.cp,
		Resume:          fx.resume,
		EFSDPath:        filepath.Join(fx.dir, "efsd.json"),
		Workers:         3,
		CheckpointEvery: 8,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requestID reconstructs the scanner's deployment id format.
func requestID(block uint64, tx int) string {
	return fmt.Sprintf("scan-b%08d-t%04d", block, tx)
}

func TestScannerBackfill(t *testing.T) {
	const blocks = 12
	fx := newScanFixture(t, 21, blocks)
	s := fx.scanner(t, func(c *Config) { c.EndBlock = blocks - 1 })
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Cursor covers the whole range.
	cur, ok, err := ReadCheckpoint(filepath.Join(fx.dir, "checkpoint"))
	if err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if want := (Cursor{Block: blocks - 1, Tx: 3}); cur != want {
		t.Fatalf("cursor %v, want %v", cur, want)
	}
	// The event log (after Sync at the final checkpoint) holds exactly one
	// event per deployment, by request id.
	if err := fx.log.Sync(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := eventlog.ReadLog(filepath.Join(fx.dir, "events.ndjson"))
	if err != nil || skipped != 0 {
		t.Fatalf("read log: skipped=%d err=%v", skipped, err)
	}
	seen := map[string]int{}
	for _, ev := range events {
		seen[ev.RequestID]++
	}
	ctx := context.Background()
	for b := uint64(0); b < blocks; b++ {
		blk, err := fx.source.BlockAt(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range blk.Deployments {
			if n := seen[requestID(d.Block, d.Tx)]; n != 1 {
				t.Fatalf("deployment b%d/t%d has %d events, want 1", d.Block, d.Tx, n)
			}
		}
	}
	if len(seen) != blocks*4 {
		t.Fatalf("%d distinct request ids, want %d", len(seen), blocks*4)
	}
	// Every proxied implementation's declared selectors are in the EFSD.
	assertEFSDAttribution(t, fx, blocks)
}

// TestScannerComputesTemplateOnce scans one block that deploys a single
// template eight times over four workers: the cache coalesces the workers
// handed it at once, so the template is computed exactly once, and every
// deployment still gets its own wide event, the other seven marked as
// cache hits.
func TestScannerComputesTemplateOnce(t *testing.T) {
	tmpls, err := chain.SyntheticTemplates(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const deploys = 8
	src, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            5,
		Blocks:          1,
		DeploysPerBlock: deploys,
		Templates:       chain.TemplateCodes(tmpls),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := eventlog.New(eventlog.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Source: src, Cache: core.NewCache(16), EventLog: w, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := core.Metrics().Snapshot().Counters
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	after := core.Metrics().Snapshot().Counters
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d := after["sigrec_cache_misses_total"] - before["sigrec_cache_misses_total"]; d != 1 {
		t.Errorf("template computed %d times, want 1", d)
	}
	events, _, err := eventlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, ev := range events {
		if ev.Cache == "hit" {
			hits++
		}
	}
	if len(events) != deploys || hits != deploys-1 {
		t.Errorf("%d events, %d marked hit; want %d and %d", len(events), hits, deploys, deploys-1)
	}
}

// assertEFSDAttribution checks that each proxy deployment's
// implementation template has all of its declared selectors published.
func assertEFSDAttribution(t *testing.T, fx *scanFixture, blocks uint64) {
	t.Helper()
	f, err := os.Open(filepath.Join(fx.dir, "efsd.json"))
	if err != nil {
		t.Fatalf("efsd.json: %v", err)
	}
	defer f.Close()
	db, err := efsd.LoadTrusted(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checked := 0
	for b := uint64(0); b < blocks; b++ {
		blk, err := fx.source.BlockAt(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range blk.Deployments {
			if !d.Kind.IsProxy() {
				continue
			}
			implCode, ok, err := fx.source.CodeAt(ctx, d.Implementation)
			if err != nil || !ok {
				t.Fatalf("b%d/t%d: implementation missing", d.Block, d.Tx)
			}
			ti := templateIndex(t, fx.tmpls, implCode)
			for _, sig := range fx.tmpls[ti].Functions {
				if _, ok := db.Lookup(sig.Selector()); !ok {
					t.Fatalf("b%d/t%d (%v): selector %s of implementation not in EFSD",
						d.Block, d.Tx, d.Kind, sig.Selector().Hex())
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no proxy deployments in fixture")
	}
}

func templateIndex(t *testing.T, tmpls []corpus.DeployedContract, code []byte) int {
	t.Helper()
	for i := range tmpls {
		if string(tmpls[i].Code) == string(code) {
			return i
		}
	}
	t.Fatal("implementation bytecode matches no template")
	return -1
}

// A clean stop and a fresh scanner with the saved cursor must cover the
// remainder exactly once: no deployment lost, none double-processed.
func TestScannerResume(t *testing.T) {
	const blocks = 12
	fx := newScanFixture(t, 33, blocks)
	first := fx.scanner(t, func(c *Config) { c.EndBlock = 5 })
	if err := first.Run(context.Background()); err != nil {
		t.Fatalf("first run: %v", err)
	}
	cur, ok, err := ReadCheckpoint(filepath.Join(fx.dir, "checkpoint"))
	if err != nil || !ok {
		t.Fatalf("checkpoint after first run: ok=%v err=%v", ok, err)
	}
	if want := (Cursor{Block: 5, Tx: 3}); cur != want {
		t.Fatalf("cursor %v, want %v", cur, want)
	}
	fx.resume = &cur
	second := fx.scanner(t, func(c *Config) { c.EndBlock = blocks - 1 })
	if err := second.Run(context.Background()); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if err := fx.log.Sync(); err != nil {
		t.Fatal(err)
	}
	events, _, err := eventlog.ReadLog(filepath.Join(fx.dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range events {
		seen[ev.RequestID]++
	}
	if len(seen) != blocks*4 {
		t.Fatalf("%d distinct request ids, want %d", len(seen), blocks*4)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request id %s has %d events; clean resume must not reprocess", id, n)
		}
	}
	assertEFSDAttribution(t, fx, blocks)
}

// Live mode follows a growing head and checkpoints as it goes; cancel
// stops it cleanly with a durable cursor.
func TestScannerLive(t *testing.T) {
	tmpls, err := chain.SyntheticTemplates(55, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            55,
		Blocks:          1000,
		DeploysPerBlock: 2,
		ProxyRate:       0.4,
		FacadeShare:     0.25,
		Templates:       chain.TemplateCodes(tmpls),
		HeadStart:       3,
		HeadInterval:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cp, _, _, err := OpenCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Source:          src,
		Cache:           core.NewTieredCache(64, st).Cache,
		Checkpoint:      cp,
		Live:            true,
		PollInterval:    time.Millisecond,
		Workers:         2,
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	// Wait until the scanner has durably passed the initial head, proving
	// it tailed blocks that did not exist at startup.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, ok, err := ReadCheckpoint(filepath.Join(dir, "checkpoint"))
		if err != nil {
			t.Fatal(err)
		}
		if ok && cur.Block > 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live scanner never passed block 10")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("live run: %v", err)
	}
}

// A checkpoint after which the EFSD has not changed keeps the published
// file as it is: a resumed backfill over deployments whose signatures are
// all published already never replaces efsd.json, and the file still
// equals the database at the end.
func TestScannerSkipsUnchangedEFSDExport(t *testing.T) {
	const blocks = 30
	fx := newScanFixture(t, 21, blocks)
	first := fx.scanner(t, func(c *Config) { c.EndBlock = 9 })
	if err := first.Run(context.Background()); err != nil {
		t.Fatalf("first run: %v", err)
	}
	for _, tmpl := range fx.tmpls {
		for _, sig := range tmpl.Functions {
			if _, ok := first.EFSD().Lookup(sig.Selector()); !ok {
				t.Fatalf("template selector %s not published by the first run", sig.Selector().Hex())
			}
		}
	}
	path := filepath.Join(fx.dir, "efsd.json")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, ok, err := ReadCheckpoint(filepath.Join(fx.dir, "checkpoint"))
	if err != nil || !ok {
		t.Fatalf("checkpoint after first run: ok=%v err=%v", ok, err)
	}
	fx.resume = &cur
	second := fx.scanner(t, func(c *Config) { c.EndBlock = blocks - 1 })
	gen := second.EFSD().Generation()
	if err := second.Run(context.Background()); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if cur, _, _ := ReadCheckpoint(filepath.Join(fx.dir, "checkpoint")); cur != (Cursor{Block: blocks - 1, Tx: 3}) {
		t.Fatalf("cursor %v after the second run", cur)
	}
	if g := second.EFSD().Generation(); g != gen {
		t.Fatalf("the second run changed the EFSD (generation %d -> %d); the fixture no longer tests the skip", gen, g)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("efsd.json was replaced although no checkpoint had anything new to publish")
	}
	var want bytes.Buffer
	if err := second.EFSD().Save(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("efsd.json differs from the database (err %v)", err)
	}
	if tmp, _ := filepath.Glob(filepath.Join(fx.dir, ".efsd-*")); len(tmp) != 0 {
		t.Fatalf("export left temp files %v", tmp)
	}
	assertEFSDAttribution(t, fx, blocks)
}

// Only a change to the database rewrites the EFSD: re-registering the
// published type list does not, changing a selector's type list does.
func TestScannerRewritesEFSDOnChange(t *testing.T) {
	fx := newScanFixture(t, 21, 1)
	s := fx.scanner(t, nil)
	path := filepath.Join(fx.dir, "efsd.json")
	checkpoint := func() os.FileInfo {
		t.Helper()
		if err := s.saveProgress(Cursor{}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	sel := abi.Selector{0xde, 0xad, 0xbe, 0xef}
	s.EFSD().AddRecovered(sel, "(uint256)")
	first := checkpoint()
	s.EFSD().AddRecovered(sel, "(uint256)")
	if !os.SameFile(first, checkpoint()) {
		t.Fatal("re-registering an identical type list rewrote efsd.json")
	}
	s.EFSD().AddRecovered(sel, "(uint8)")
	if os.SameFile(first, checkpoint()) {
		t.Fatal("a changed type list did not rewrite efsd.json")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := efsd.LoadTrusted(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Lookup(sel); got != efsd.RecoveredName+"(uint8)" {
		t.Fatalf("efsd.json holds %q for %s", got, sel.Hex())
	}
}

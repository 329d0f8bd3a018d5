package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/efsd"
	"sigrec/internal/eventlog"
	"sigrec/internal/evm"
	"sigrec/internal/keccak"
	"sigrec/internal/scan"
	"sigrec/internal/store"
)

// The scan workloads' chain and the scanner wiring. The recovery options
// are cmd/sigrec-scan's defaults (2 s deadline, automatic per-selector
// fan-out); the chain is sized so one cold pass takes about a second.
const (
	scanBlocks       = 1000
	scanPerBlock     = 4
	scanTemplates    = 800
	scanProxyRate    = 0.35
	scanFacadeShare  = 0.25
	scanWorkers      = 2
	scanCacheEntries = 4096
	scanDeadline     = 2 * time.Second
	scanCkptEvery    = scan.DefaultCheckpointEvery
	scanProxyHops    = scan.DefaultMaxProxyHops
)

// scanChain is the synthetic chain the scan workloads backfill, with the
// ground truth of its range.
type scanChain struct {
	src     *chain.Synthetic
	end     uint64 // last block, inclusive
	deploys int64
	// want holds the functions of every template deployed in the range;
	// proxies resolve to the same templates.
	want []fnWant
}

// newScanChain builds the chain from the seed. Templates whose recovery
// is truncated or fails are left out: the result cache never stores them,
// so the rescan would recompute them and stop measuring the read path.
func newScanChain(seed int64) (*scanChain, error) {
	tmpls, err := chain.SyntheticTemplates(seed, scanTemplates)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(tmpls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < scanWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := core.Options{Deadline: scanDeadline}
			for i := int(next.Add(1)) - 1; i < len(tmpls); i = int(next.Add(1)) - 1 {
				res, err := core.RecoverContext(context.Background(), tmpls[i].Code, opts)
				keep[i] = err == nil && !res.Truncated
			}
		}()
	}
	wg.Wait()
	var kept []corpus.DeployedContract
	for i, t := range tmpls {
		if keep[i] {
			kept = append(kept, t)
		}
	}
	src, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            seed,
		Blocks:          scanBlocks,
		DeploysPerBlock: scanPerBlock,
		ProxyRate:       scanProxyRate,
		FacadeShare:     scanFacadeShare,
		Templates:       chain.TemplateCodes(kept),
	})
	if err != nil {
		return nil, err
	}
	ch := &scanChain{src: src, end: scanBlocks - 1}
	used := map[int]bool{}
	for b := uint64(0); b <= ch.end; b++ {
		blk, err := src.BlockAt(context.Background(), b)
		if err != nil {
			return nil, err
		}
		for _, d := range blk.Deployments {
			ch.deploys++
			if d.Kind == chain.DeployDirect {
				used[d.Template] = true
			}
		}
	}
	idx := make([]int, 0, len(used))
	for i := range used {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		for _, sig := range kept[i].Functions {
			ch.want = append(ch.want, newFnWant(sig, ""))
		}
	}
	return ch, nil
}

// checkEFSD verifies the published signature database at path against
// the chain's ground truth, with abi.Signature.EqualTypes.
func checkEFSD(path string, want []fnWant) (wrong, exact int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	db, err := efsd.LoadTrusted(f)
	if err != nil {
		return 0, 0, err
	}
	for _, w := range want {
		match := false
		if canon, ok := db.Lookup(w.sel); ok {
			sig, err := abi.ParseSignature(canon)
			match = err == nil && sig.EqualTypes(w.sig)
		}
		switch {
		case match:
			exact++
		case w.checkable:
			wrong++
		}
	}
	return wrong, exact, nil
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// scanPass backfills the chain once with a fresh scan.Scanner wired the
// way cmd/sigrec-scan wires it: a TieredCache over st, and an event log,
// checkpoint and EFSD file under dir. It returns the time Run took and the
// resources it used.
func scanPass(ch *scanChain, dir string, st *store.Store) (time.Duration, usage, error) {
	events, err := eventlog.New(eventlog.Config{Path: filepath.Join(dir, "events.ndjson"), Registry: core.Metrics()})
	if err != nil {
		return 0, usage{}, err
	}
	cp, _, _, err := scan.OpenCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		events.Close()
		return 0, usage{}, err
	}
	s, err := scan.New(scan.Config{
		Source:          ch.src,
		Cache:           core.NewTieredCache(scanCacheEntries, st).Cache,
		EventLog:        events,
		Checkpoint:      cp,
		EFSDPath:        filepath.Join(dir, "efsd.json"),
		EndBlock:        ch.end,
		Workers:         scanWorkers,
		CheckpointEvery: scanCkptEvery,
		Recover:         core.Options{Deadline: scanDeadline},
		Logger:          discardLog,
	})
	if err != nil {
		events.Close()
		return 0, usage{}, err
	}
	u0, t0 := readUsage(), time.Now()
	err = s.Run(context.Background())
	el, u := time.Since(t0), readUsage().sub(u0)
	return el, u, errors.Join(err, events.Close())
}

// runScan measures rounds of two backfills of the chain over one fresh
// store: a cold pass, which fills the store (the write path: recoveries,
// store appends, event-log syncs, checkpoints and EFSD publishing), then a
// rescan by a fresh scan.Scanner with a fresh memory tier over the filled
// store, which recovers nothing (the read path). A rescan that misses the
// store fails the run: it would no longer measure the read path.
func runScan(cfg runConfig, r *report) error {
	ch, setupS, err := repeatSetup(func() (*scanChain, error) { return newScanChain(cfg.seed) }, func(*scanChain) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)

	measure := cfg.measure
	if cfg.traced {
		measure /= 2
	}
	var (
		rounds     []time.Duration
		rates      []float64
		total      usage
		d          = counters{}
		exact, fns int
	)
	// pass runs one backfill into dir and checks what it published.
	pass := func(dir string, st *store.Store, rescan bool) (time.Duration, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		c0 := readCounters()
		el, u, err := scanPass(ch, dir, st)
		pd := readCounters().sub(c0)
		if err != nil {
			return 0, err
		}
		if rescan && pd["sigrec_store_misses_total"] > 0 {
			return 0, fmt.Errorf("the rescan missed the store %d times: it would not measure the read path",
				pd["sigrec_store_misses_total"])
		}
		wrong, ex, err := checkEFSD(filepath.Join(dir, "efsd.json"), ch.want)
		if err != nil {
			return 0, err
		}
		recovered := int64(pd["sigrec_scan_recoveries_total"])
		r.attempted += ch.deploys
		r.failed += int64(pd["sigrec_scan_recover_errors_total"]) + max(0, ch.deploys-recovered)
		r.wrong += int64(wrong)
		exact += ex
		fns += len(ch.want)
		total = total.add(u)
		for k, v := range pd {
			d[k] += v
		}
		return el, nil
	}
	runtime.GC()
	deadline := time.Now().Add(measure)
	for i := 0; i == 0 || another(deadline, rounds[len(rounds)-1]); i++ {
		var el [2]time.Duration
		err := withRoundStore(filepath.Join(cfg.workDir, fmt.Sprintf("round-%d", i)), func(dir string, st *store.Store) error {
			var err error
			for k, name := range []string{"cold", "rescan"} {
				if el[k], err = pass(filepath.Join(dir, name), st, k == 1); err != nil {
					return fmt.Errorf("%s pass: %w", name, err)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, el[0]+el[1])
		rates = append(rates, float64(2*ch.deploys)/(el[0]+el[1]).Seconds())
	}
	passes := 2 * int64(len(rounds))
	ops := ch.deploys * passes
	r.set("throughput_per_s", median(rates))
	r.set("latency_p50_ms", median(durationsMS(rounds)))
	r.setUsage(total, ops)
	r.setPipeline(d, ops)
	r.setCheck(ratio(float64(exact), float64(fns)))
	r.setLatency(rounds)
	r.set("scan.dedupe_hit_ratio", ratio(float64(d["sigrec_scan_dedupe_hits_total"]), float64(ops)))
	r.set("scan.checkpoints", ratio(float64(d["sigrec_scan_checkpoints_total"]), float64(passes)))
	fmt.Fprintf(os.Stderr, "%s: %d rounds of 2 x %d deployments, median %.3fms\n", cfg.workload, len(rounds), ch.deploys, median(durationsMS(rounds)))
	if !cfg.traced {
		return nil
	}

	// Replay the round serially for the rest of the run, alternating
	// untraced and traced rounds; cold and rescan replays trace into
	// separate tracers.
	var plain, traced time.Duration
	var replays int64
	cold, rescan := newTracer(time.Now(), 1), newTracer(time.Now(), 1<<40)
	deadline = time.Now().Add(cfg.measure - measure)
	for i := 0; i%2 == 1 || i == 0 || time.Now().Before(deadline); i++ {
		ts := [2]*tracer{cold, rescan}
		if i%2 == 0 {
			ts = [2]*tracer{}
		}
		var el time.Duration
		err := withRoundStore(filepath.Join(cfg.workDir, fmt.Sprintf("replay-%d", i)), func(dir string, st *store.Store) error {
			for k, name := range []string{"cold", "rescan"} {
				sub := filepath.Join(dir, name)
				if err := os.MkdirAll(sub, 0o755); err != nil {
					return err
				}
				e, saveKB, err := scanReplay(ts[k], ch, sub, tracedStore{st, ts[k]})
				if err != nil {
					return fmt.Errorf("%s replay: %w", name, err)
				}
				wrong, _, err := checkEFSD(filepath.Join(sub, "efsd.json"), ch.want)
				if err != nil {
					return err
				}
				r.attempted += ch.deploys
				r.wrong += int64(wrong)
				el += e
				if ts[k] != nil {
					r.set("efsd.save_kb", saveKB)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if i%2 == 0 {
			plain += el
		} else {
			traced += el
			replays++
		}
	}
	l := merged(cold, rescan)
	replayed := ch.deploys * replays
	per := func(l layers, name string, n int64) float64 { return ratio(l.total(name).Seconds()*1e6, float64(n)) }
	r.set("scan.ingest_us", per(l, spanBlockAt, l.count(spanBlockAt)))
	r.set("scan.resolve_us", per(l, spanResolve, 2*replayed))
	r.set("scan.recover_us", per(cold.layers, spanRecover, replayed))
	r.set("scan.rescan_recover_us", per(rescan.layers, spanRecover, replayed))
	r.set("scan.publish_ms", per(l, spanPublish, l.count(spanPublish))/1e3)
	r.set("store.load_us", per(rescan.layers, spanStoreLoad, rescan.layers.count(spanStoreLoad)))
	r.set("store.save_us", per(cold.layers, spanStoreSave, cold.layers.count(spanStoreSave)))
	r.set("keccak.us_per_key", per(l, spanKeccak, l.count(spanKeccak)))
	r.set("trace.overhead_ratio", ratio(plain.Seconds(), traced.Seconds()))
	return finishTrace(cfg, l, 2*replayed, cold, rescan)
}

// withRoundStore runs round with a fresh result store under dir, then
// closes the store and removes dir.
func withRoundStore(dir string, round func(dir string, st *store.Store) error) error {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	err = round(dir, st)
	err = errors.Join(err, st.Close())
	return errors.Join(err, os.RemoveAll(dir))
}

// tracedStore puts a span around each call the tiered cache makes into
// the result store.
type tracedStore struct {
	st *store.Store
	t  *tracer
}

func (s tracedStore) Load(key [32]byte) (core.Result, error, bool) {
	h := s.t.start(spanStoreLoad)
	defer s.t.end(h)
	return s.st.Load(key)
}

func (s tracedStore) Save(key [32]byte, res core.Result, rerr error) error {
	h := s.t.start(spanStoreSave)
	defer s.t.end(h)
	return s.st.Save(key, res, rerr)
}

// scanReplay backfills the chain serially with one public call per stage,
// in the order scan.Scanner runs them: ingest, proxy resolution, dedupe,
// recovery, publish, and every scanCkptEvery deployments the durable
// checkpoint sequence (event-log sync, EFSD save with fsync and rename,
// cursor save). It returns the replay's duration and the size of the
// last EFSD save in KiB.
func scanReplay(t *tracer, ch *scanChain, dir string, st core.ResultStore) (time.Duration, float64, error) {
	ctx := context.Background()
	events, err := eventlog.New(eventlog.Config{Path: filepath.Join(dir, "events.ndjson"), Registry: core.Metrics()})
	if err != nil {
		return 0, 0, err
	}
	cp, _, _, err := scan.OpenCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		events.Close()
		return 0, 0, err
	}
	cache := core.NewTieredCache(scanCacheEntries, st)
	db := efsd.New()
	opts := core.Options{Cache: cache.Cache, EventLog: events, Deadline: scanDeadline}
	efsdPath := filepath.Join(dir, "efsd.json")
	var saveBytes int64
	publish := func(c scan.Cursor) error {
		t.begin()
		defer t.finish()
		p := t.start(spanPublish)
		defer t.end(p)
		h := t.start(spanSync)
		err := events.Sync()
		t.end(h)
		if err != nil {
			return err
		}
		h = t.start(spanEFSDSave)
		saveBytes, err = saveEFSD(db, efsdPath)
		t.endItems(h, saveBytes)
		if err != nil {
			return err
		}
		h = t.start(spanCkptSave)
		err = cp.Save(c)
		t.end(h)
		return err
	}
	t0 := time.Now()
	n := 0
	var last scan.Cursor
	for b := uint64(0); b <= ch.end; b++ {
		t.begin()
		h := t.start(spanBlockAt)
		blk, err := ch.src.BlockAt(ctx, b)
		t.end(h)
		t.finish()
		if err != nil {
			events.Close()
			return 0, 0, err
		}
		for _, d := range blk.Deployments {
			t.begin()
			root := t.start(spanDeployment)
			code := resolveProxy(ctx, t, ch.src, d.Code)
			h := t.start(spanKeccak)
			key := keccak.Sum256(code)
			t.end(h)
			if key == [32]byte{} {
				events.Close()
				return 0, 0, errZeroKey
			}
			h = t.start(spanPeek)
			cache.Peek(code)
			t.end(h)
			rctx, _ := eventlog.NewContext(ctx, fmt.Sprintf("scan-b%08d-t%04d", d.Block, d.Tx))
			h = t.start(spanRecover)
			res, rerr := core.RecoverContext(rctx, code, opts)
			t.end(h)
			for _, fn := range res.Functions {
				db.AddRecovered(fn.Selector, fn.TypeList())
			}
			t.end(root)
			t.finish()
			if rerr != nil {
				events.Close()
				return 0, 0, fmt.Errorf("block %d tx %d: %w", d.Block, d.Tx, rerr)
			}
			last = scan.Cursor{Block: d.Block, Tx: d.Tx}
			if n++; n%scanCkptEvery == 0 {
				if err := publish(last); err != nil {
					events.Close()
					return 0, 0, err
				}
			}
		}
	}
	if err := publish(last); err != nil {
		events.Close()
		return 0, 0, err
	}
	el := time.Since(t0)
	return el, float64(saveBytes) / 1024, events.Close()
}

// resolveProxy follows proxy indirection the way scan.Scanner does:
// byte-pattern minimal proxies first, then a concrete-execution probe for
// other DELEGATECALL forwarders, up to scanProxyHops deep.
func resolveProxy(ctx context.Context, t *tracer, src chain.Source, code []byte) []byte {
	h := t.start(spanResolve)
	defer t.end(h)
	for hop := 0; hop < scanProxyHops; hop++ {
		p := t.start(spanProxy)
		impl, _, ok := scan.ParseMinimalProxy(code)
		t.end(p)
		var target evm.Word
		if ok {
			target = evm.WordFromBytes(impl[:])
		} else {
			if hop > 0 {
				break
			}
			p = t.start(spanDelegate)
			w, found := evm.DelegateTarget(code, 0)
			t.end(p)
			if !found {
				break
			}
			target = w
		}
		p = t.start(spanCodeAt)
		next, found, err := src.CodeAt(ctx, target)
		t.end(p)
		if err != nil || !found || len(next) == 0 {
			break
		}
		code = next
	}
	return code
}

// saveEFSD writes db to path the way the scanner publishes it: a temp
// file in the same directory, fsynced, then renamed over path. It returns
// the file's size.
func saveEFSD(db *efsd.DB, path string) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".efsd-*")
	if err != nil {
		return 0, err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return size, nil
}

package scan

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/efsd"
	"sigrec/internal/eventlog"
	"sigrec/internal/evm"
	"sigrec/internal/keccak"
	"sigrec/internal/obs"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultWorkers         = 4
	DefaultQueueDepth      = 64
	DefaultCheckpointEvery = 32
	DefaultPollInterval    = 250 * time.Millisecond
	DefaultMaxProxyHops    = 4
)

// Config wires a Scanner. Source is required; everything else is
// optional with sane defaults (a nil Checkpoint scans without resume, a
// nil EventLog scans without the durable log).
type Config struct {
	// Source is the chain to follow.
	Source chain.Source
	// Cache memoizes recoveries keyed by keccak256(code) and coalesces
	// workers handed the same bytecode at once, so each template is
	// computed once — the dedupe stage of the pipeline. Back it with a
	// store (NewTieredCache) and already-recovered bytecode is never
	// recomputed across restarts either.
	Cache *core.Cache
	// EventLog receives one wide event per deployment recovery (cache
	// hits included), the substrate of crash reconciliation.
	EventLog *eventlog.Writer
	// Checkpoint persists the resume cursor; nil disables checkpointing.
	Checkpoint *Checkpoint
	// Resume is the durable cursor to resume after: every deployment at
	// or before it is skipped. Nil starts from genesis.
	Resume *Cursor
	// EFSDPath, when set, is an EFSD JSON database the scanner publishes
	// recovered signatures into: loaded (if present) at startup, written
	// atomically at every checkpoint that follows a change to it.
	EFSDPath string
	// Live switches from backfill (scan [start, EndBlock], then stop) to
	// head-following (poll for new blocks forever, bounded lag).
	Live bool
	// EndBlock is the inclusive backfill end; ignored in live mode.
	EndBlock uint64
	// PollInterval is the live-mode head poll cadence.
	PollInterval time.Duration
	// Workers sizes the recovery worker pool; QueueDepth bounds every
	// pipeline channel, which is what bounds ingest-ahead in live mode.
	Workers    int
	QueueDepth int
	// CheckpointEvery is the number of completed deployments between
	// checkpoint saves (the final drain always saves).
	CheckpointEvery int
	// ProbeStepLimit bounds the concrete-interpreter proxy probe.
	ProbeStepLimit int
	// MaxProxyHops bounds proxy-of-proxy chains during resolution.
	MaxProxyHops int
	// Recover carries the per-contract recovery budgets (StepBudget,
	// MaxPaths, Deadline). Cache and EventLog are overridden with the
	// scanner's own.
	Recover core.Options
	// Tracer, when set, records span trees through the scan stages.
	Tracer *obs.Tracer
	// Logger defaults to slog.Default.
	Logger *slog.Logger
}

// Scanner is the continuous chain-scan pipeline: ingest blocks, extract
// deployments, resolve proxies, dedupe, recover, publish. One Run per
// Scanner.
type Scanner struct {
	cfg Config
	db  *efsd.DB

	// seen is the process-lifetime set of bytecode keys, for dedupe
	// metering (the cache/store do the actual dedupe).
	seenMu sync.Mutex
	seen   map[[32]byte]struct{}

	// exportedGen is the EFSD generation the file at EFSDPath holds —
	// the one loaded at startup or the last export wrote — valid once
	// exported is set. Tracker goroutine only after New.
	exported    bool
	exportedGen uint64
}

// New validates cfg and builds a Scanner.
func New(cfg Config) (*Scanner, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("scan: Config.Source is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.MaxProxyHops <= 0 {
		cfg.MaxProxyHops = DefaultMaxProxyHops
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	cfg.Recover.Cache = cfg.Cache
	cfg.Recover.EventLog = cfg.EventLog
	s := &Scanner{
		cfg:  cfg,
		db:   efsd.New(),
		seen: make(map[[32]byte]struct{}),
	}
	if cfg.EFSDPath != "" {
		if f, err := os.Open(cfg.EFSDPath); err == nil {
			db, lerr := efsd.LoadTrusted(f)
			f.Close()
			if lerr != nil {
				return nil, fmt.Errorf("scan: load EFSD: %w", lerr)
			}
			// The file on disk holds every loaded entry: until one
			// changes, there is nothing to export. Its rename may be
			// one a killed run never made durable, so sync it now.
			if err := syncDir(filepath.Dir(cfg.EFSDPath)); err != nil {
				return nil, fmt.Errorf("scan: load EFSD: %w", err)
			}
			s.db, s.exported, s.exportedGen = db, true, db.Generation()
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("scan: load EFSD: %w", err)
		}
	}
	return s, nil
}

// EFSD exposes the scanner's signature database (for tests and for
// serving layers embedding a scanner).
func (s *Scanner) EFSD() *efsd.DB { return s.db }

// workItem is one deployment headed for recovery.
type workItem struct {
	block uint64
	tx    int
	code  []byte
	// enqueued timestamps the ingest-side send, so the worker can meter
	// queue wait — the pipeline's backpressure signal.
	enqueued time.Time
}

// trackMsg drives the watermark tracker: a manifest announces a block's
// deployment count (manifest=true, sent in ascending block order before
// any of its items), a completion retires one deployment.
type trackMsg struct {
	manifest bool
	block    uint64
	total    int // manifest only
	tx       int // completion only
}

// Run executes the scan until the backfill range completes or, in live
// mode, until ctx is canceled (which returns ctx.Err). The final
// checkpoint is always saved on the way out, so even a canceled run
// resumes exactly.
func (s *Scanner) Run(ctx context.Context) error {
	work := make(chan workItem, s.cfg.QueueDepth)
	track := make(chan trackMsg, s.cfg.QueueDepth*2+4)

	trackErr := make(chan error, 1)
	go func() { trackErr <- s.tracker(track) }()

	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				mWorkQueueDepth.Set(int64(len(work)))
				if ctx.Err() != nil {
					continue // drain without completing: resume will redo it
				}
				s.process(ctx, it)
				track <- trackMsg{block: it.block, tx: it.tx}
			}
		}()
	}

	ingErr := s.ingest(ctx, work, track)
	close(work)
	wg.Wait()
	close(track)
	terr := <-trackErr
	return errors.Join(ingErr, terr)
}

// ingest walks blocks from the resume point, announces each block to the
// tracker, and feeds deployments into the work queue. It returns when
// the backfill range is exhausted or ctx is canceled.
func (s *Scanner) ingest(ctx context.Context, work chan<- workItem, track chan<- trackMsg) error {
	start := uint64(0)
	skip := -1 // in block `start`, skip deployments with tx <= skip
	if s.cfg.Resume != nil {
		start, skip = s.cfg.Resume.Block, s.cfg.Resume.Tx
	}
	for b := start; ; b++ {
		if !s.cfg.Live && b > s.cfg.EndBlock {
			return nil
		}
		head, err := s.waitForBlock(ctx, b)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil // clean shutdown; cursor stays durable
			}
			return err
		}
		blk, err := s.cfg.Source.BlockAt(ctx, b)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("scan: block %d: %w", b, err)
		}
		mBlocksIngested.Inc()
		mHeadLag.Set(int64(head - b))
		first := 0
		if b == start {
			first = skip + 1
		}
		if first > len(blk.Deployments) {
			first = len(blk.Deployments)
		}
		track <- trackMsg{manifest: true, block: b, total: len(blk.Deployments), tx: first}
		for _, d := range blk.Deployments[first:] {
			select {
			case work <- workItem{block: d.Block, tx: d.Tx, code: d.Code, enqueued: time.Now()}:
				mWorkQueueDepth.Set(int64(len(work)))
			case <-ctx.Done():
				return nil
			}
		}
	}
}

// waitForBlock blocks until the source head reaches b (polling in live
// mode) and returns the head it saw.
func (s *Scanner) waitForBlock(ctx context.Context, b uint64) (uint64, error) {
	for {
		head, err := s.cfg.Source.Head(ctx)
		if err != nil {
			return 0, err
		}
		if head >= b {
			return head, nil
		}
		if !s.cfg.Live {
			return 0, fmt.Errorf("scan: backfill block %d beyond source head %d", b, head)
		}
		select {
		case <-time.After(s.cfg.PollInterval):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// blockState is the tracker's view of one announced block.
type blockState struct {
	num    uint64
	total  int
	done   map[int]bool
	prefix int // deployments [0, prefix) are complete
}

// tracker turns out-of-order worker completions into a monotone durable
// cursor: the contiguous prefix of completed deployments across blocks.
// Every CheckpointEvery completions — and once more on drain — it makes
// the event log durable (Sync), exports the EFSD (a no-op when it has not
// changed since the last export), and atomically saves the cursor, in
// that order: the checkpoint never claims more than the log and the EFSD
// can prove.
func (s *Scanner) tracker(track <-chan trackMsg) error {
	var (
		queue     []*blockState
		byNum     = map[uint64]*blockState{}
		cursor    Cursor
		haveCur   = s.cfg.Resume != nil
		sinceSave = 0
		firstErr  error
	)
	if haveCur {
		cursor = *s.cfg.Resume
	}
	advance := func() {
		for len(queue) > 0 {
			h := queue[0]
			for h.done[h.prefix] {
				delete(h.done, h.prefix)
				h.prefix++
			}
			if h.prefix > 0 || h.total == 0 {
				cursor = Cursor{Block: h.num, Tx: h.prefix - 1}
				haveCur = true
			}
			if h.prefix < h.total {
				return
			}
			delete(byNum, h.num)
			queue = queue[1:]
		}
	}
	save := func() {
		if !haveCur || s.cfg.Checkpoint == nil {
			return
		}
		if err := s.saveProgress(cursor); err != nil && firstErr == nil {
			firstErr = err
		}
		sinceSave = 0
	}
	for msg := range track {
		if msg.manifest {
			st := &blockState{num: msg.block, total: msg.total, done: map[int]bool{}, prefix: msg.tx}
			queue = append(queue, st)
			byNum[msg.block] = st
			advance() // empty or fully-skipped blocks advance immediately
			continue
		}
		if st, ok := byNum[msg.block]; ok {
			st.done[msg.tx] = true
		}
		advance()
		sinceSave++
		if sinceSave >= s.cfg.CheckpointEvery {
			save()
		}
	}
	save()
	return firstErr
}

// saveProgress is the durability sequence behind every checkpoint.
func (s *Scanner) saveProgress(c Cursor) error {
	if err := s.cfg.EventLog.Sync(); err != nil {
		return fmt.Errorf("scan: event log sync: %w", err)
	}
	if s.cfg.EFSDPath != "" {
		if err := s.exportEFSD(); err != nil {
			return err
		}
	}
	if err := s.cfg.Checkpoint.Save(c); err != nil {
		return err
	}
	markCheckpoint(c)
	return nil
}

// exportEFSD atomically and durably replaces the EFSD JSON with the
// current database: temp write + fsync, rename, directory fsync. Without
// the directory fsync a power loss could undo the rename after the cursor
// save that follows had moved past the deployments it published. When
// the database has not changed since it was loaded or last exported, the
// file on disk already holds every entry and the rewrite is skipped.
func (s *Scanner) exportEFSD() error {
	gen := s.db.Generation()
	if s.exported && gen == s.exportedGen {
		return nil
	}
	dir := filepath.Dir(s.cfg.EFSDPath)
	f, err := os.CreateTemp(dir, ".efsd-*")
	if err != nil {
		return fmt.Errorf("scan: efsd export: %w", err)
	}
	if err := s.db.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("scan: efsd export: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("scan: efsd export: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("scan: efsd export: %w", err)
	}
	if err := os.Rename(f.Name(), s.cfg.EFSDPath); err != nil {
		return fmt.Errorf("scan: efsd export: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("scan: efsd export: %w", err)
	}
	// gen was read before Save copied the entries, so the file holds at
	// least generation gen; a later change moves the generation past it.
	s.exported, s.exportedGen = true, gen
	return nil
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// process runs one deployment through resolve -> dedupe -> recover ->
// publish. Failures are metered and logged, never fatal: the scan is a
// 24/7 pipeline and one bad contract must not stall the chain.
func (s *Scanner) process(ctx context.Context, it workItem) {
	reqID := fmt.Sprintf("scan-b%08d-t%04d", it.block, it.tx)
	var sc *eventlog.Scope
	ctx, sc = eventlog.NewContext(ctx, reqID)
	// A scan has no inbound parent, so its trace id is the request-id
	// derivation, which links the scan's wide event to its span tree —
	// `sigrec-trace` and /debug/trace join on it.
	sc.TraceID = obs.TraceIDFor(obs.SpanContext{}, reqID)
	ctx, rec := s.cfg.Tracer.StartRecovery(ctx, reqID)
	// The root span carries the deployment's chain coordinates and the
	// time it sat queued between ingest and this worker — the span-tree
	// view of pipeline backpressure.
	rec.SetInt("block", int64(it.block))
	rec.SetInt("tx", int64(it.tx))
	if !it.enqueued.IsZero() {
		waitUS := time.Since(it.enqueued).Microseconds()
		rec.SetInt("queue_wait_us", waitUS)
		mQueueWait.Observe(uint64(waitUS))
	}

	mInflightResolve.Add(1)
	span := rec.Span("scan.resolve")
	code, kind := s.resolveCode(ctx, it.code)
	span.SetStr("kind", kind.String())
	span.SetInt("code_bytes", int64(len(code)))
	span.End()
	mInflightResolve.Add(-1)
	switch kind {
	case ProxyNone:
		mDeployDirect.Inc()
	case ProxyProbed:
		mDeployProbed.Inc()
		mResolvedProbe.Inc()
	default:
		mDeployMinimal.Inc()
		mResolvedPattern.Inc()
	}

	key := keccak.Sum256(code)
	s.seenMu.Lock()
	_, dup := s.seen[key]
	s.seen[key] = struct{}{}
	s.seenMu.Unlock()
	if !dup && s.cfg.Cache != nil {
		_, _, dup = s.cfg.Cache.Peek(code)
	}
	if dup {
		mDedupeHits.Inc()
		rec.SetStr("dedupe", "hit")
	}

	// RecoverContext coalesces concurrent identical bytecode through the
	// cache: a worker that finds the template already being computed waits
	// and shares the outcome, and its wide event, marked as a cache hit,
	// still carries this deployment's request id.
	mInflightRecover.Add(1)
	res, err := core.RecoverContext(ctx, code, s.cfg.Recover)
	mInflightRecover.Add(-1)

	mScanRecoveries.Inc()
	if err != nil {
		mScanErrors.Inc()
		if !errors.Is(err, core.ErrNoFunctions) {
			s.cfg.Logger.Warn("scan recovery failed", "request", reqID, "err", err)
		}
	}
	mInflightPublish.Add(1)
	pub := rec.SpanAt("scan.publish", rec.NowUS())
	for _, fn := range res.Functions {
		s.db.AddRecovered(fn.Selector, fn.TypeList())
	}
	mPublished.Add(uint64(len(res.Functions)))
	pub.SetInt("functions", int64(len(res.Functions)))
	pub.End()
	mInflightPublish.Add(-1)
	rec.Finish(res.Truncated, err)
}

// resolveCode follows proxy indirection down to implementation bytecode:
// byte-pattern minimal proxies first, then the bounded concrete probe
// for non-minimal forwarders, up to MaxProxyHops deep. Unresolvable
// targets fall back to the bytecode in hand — recovering a bare proxy
// yields no functions, which is the honest answer.
func (s *Scanner) resolveCode(ctx context.Context, code []byte) ([]byte, ProxyKind) {
	kind := ProxyNone
	for hop := 0; hop < s.cfg.MaxProxyHops; hop++ {
		impl, k, ok := ParseMinimalProxy(code)
		var target evm.Word
		if ok {
			target = evm.WordFromBytes(impl[:])
		} else {
			if hop > 0 {
				break // already landed on non-proxy bytecode
			}
			w, found := evm.DelegateTarget(code, s.cfg.ProbeStepLimit)
			if !found {
				break
			}
			target, k = w, ProxyProbed
		}
		next, found, err := s.cfg.Source.CodeAt(ctx, target)
		if err != nil || !found || len(next) == 0 {
			mProxyUnresolved.Inc()
			break
		}
		code = next
		if kind == ProxyNone {
			kind = k // report the outermost hop's mechanism
		}
	}
	return code, kind
}

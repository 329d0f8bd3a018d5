package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/telemetry"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxBytes    = 64 << 20
	DefaultMaxSegments = 8
	DefaultQueueSize   = 1024
	DefaultTailSize    = 128
)

// Config sizes a Writer. Only Path is required.
type Config struct {
	// Path is the active log segment. Rotated segments live beside it as
	// Path.1 (most recent) through Path.N (oldest).
	Path string
	// MaxBytes rotates the active segment once it exceeds this size
	// (<= 0 selects DefaultMaxBytes).
	MaxBytes int64
	// MaxSegments bounds the rotated segments kept; the oldest is deleted
	// on rotation (<= 0 selects DefaultMaxSegments).
	MaxSegments int
	// SampleRate is the keep probability for fast, successful recoveries
	// (errors, truncations, and the slow tail are always kept). <= 0
	// selects 1 — a lossless log.
	SampleRate float64
	// QueueSize bounds events buffered between Emit and the writer
	// goroutine; beyond it events are dropped and counted, never blocking
	// the recovery path (<= 0 selects DefaultQueueSize).
	QueueSize int
	// TailSize bounds the in-memory ring of recent encoded events served
	// at GET /debug/events (<= 0 selects DefaultTailSize).
	TailSize int
	// Registry, when non-nil, receives the writer's self-metrics
	// (emitted/sampled-out/dropped/written counters, rotation and byte
	// counters, queue depth and slow-threshold gauges).
	Registry *telemetry.Registry
}

// Writer is the durable event sink: Emit enqueues (never blocks), a
// single background goroutine encodes, writes, and rotates, and Close
// drains the queue, flushes, and fsyncs. Safe for concurrent Emit.
type Writer struct {
	cfg     Config
	sampler *sampler

	mu     sync.RWMutex // guards closed + the channel send lifecycle
	closed bool
	ch     chan *Event

	// sendMu makes stamping Seq and the channel send one step, so events
	// reach the channel — and the log — in ascending Seq order even when
	// emitters race.
	sendMu sync.Mutex
	seq    uint64
	done   chan struct{}

	// tail is a ring of the most recent encoded lines (without trailing
	// newline), guarded by tailMu; tailNext is the next write slot.
	tailMu   sync.Mutex
	tail     [][]byte
	tailNext int
	tailLen  int

	// werr remembers the first write error (the writer keeps consuming so
	// Emit never blocks, but the log is declared broken).
	werr atomic.Pointer[error]

	mEmitted    *telemetry.Counter
	mSampledOut *telemetry.Counter
	mDropped    *telemetry.Counter
	mWritten    *telemetry.Counter
	mBytes      *telemetry.Counter
	mRotations  *telemetry.Counter
	mErrors     *telemetry.Counter
	mQueueDepth *telemetry.Gauge
	mThreshold  *telemetry.Gauge
}

// New opens (appending) the active segment and starts the writer
// goroutine.
func New(cfg Config) (*Writer, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("eventlog: Config.Path is required")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = DefaultMaxSegments
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.TailSize <= 0 {
		cfg.TailSize = DefaultTailSize
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry() // metrics still work, just unexposed
	}
	f, size, err := openSegment(cfg.Path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		cfg:     cfg,
		sampler: newSampler(cfg.SampleRate, uint64(time.Now().UnixNano())),
		ch:      make(chan *Event, cfg.QueueSize),
		done:    make(chan struct{}),
		tail:    make([][]byte, cfg.TailSize),

		mEmitted:    reg.Counter("sigrec_events_emitted_total"),
		mSampledOut: reg.Counter("sigrec_events_sampled_out_total"),
		mDropped:    reg.Counter("sigrec_events_dropped_total"),
		mWritten:    reg.Counter("sigrec_events_written_total"),
		mBytes:      reg.Counter("sigrec_eventlog_bytes_written_total"),
		mRotations:  reg.Counter("sigrec_eventlog_rotations_total"),
		mErrors:     reg.Counter("sigrec_eventlog_errors_total"),
		mQueueDepth: reg.Gauge("sigrec_eventlog_queue_depth"),
		mThreshold:  reg.Gauge("sigrec_eventlog_slow_threshold_microseconds"),
	}
	go w.loop(f, size)
	return w, nil
}

// openSegment opens the active segment for appending and reports its
// current size, so a restarted process continues where it left off.
func openSegment(path string) (*os.File, int64, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("eventlog: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("eventlog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("eventlog: %w", err)
	}
	size := st.Size()
	// A SIGKILLed writer can leave a torn final line (a bufio flush landed
	// mid-record). Appending straight after it would weld the next event
	// onto the fragment, corrupting a good record too. Terminate the torn
	// line so the damage stays confined to the fragment — readers skip one
	// undecodable line instead of two.
	if size > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, size-1); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("eventlog: %w", err)
		}
		if tail[0] != '\n' {
			n, err := f.Write([]byte{'\n'})
			if err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("eventlog: repair torn tail: %w", err)
			}
			size += int64(n)
		}
	}
	return f, size, nil
}

// Emit offers one finished recovery event to the log. It never blocks:
// the event is sampled, stamped, and enqueued; when the queue is full it
// is dropped and counted. Emit returns the assigned sequence number, or 0
// when the event was sampled out or dropped (so callers only advertise
// event_seq for events that will actually appear in the log).
func (w *Writer) Emit(ev *Event) uint64 {
	if w == nil || ev == nil {
		return 0
	}
	w.mEmitted.Inc()
	ev.Finalize()
	keep, _ := w.sampler.keep(ev)
	w.mThreshold.Set(w.sampler.thresholdNow())
	if !keep {
		w.mSampledOut.Inc()
		return 0
	}
	return w.enqueue(ev)
}

// EmitAux appends an auxiliary record — a non-recovery line such as the
// flight-recorder dump on drain — as {"seq":…,"ts":…,"kind":kind,"data":v}.
// Aux records bypass sampling and share the event sequence space; readers
// skip them unless asked for kind.
func (w *Writer) EmitAux(kind string, v any) uint64 {
	if w == nil {
		return 0
	}
	data, err := json.Marshal(v)
	if err != nil {
		w.mErrors.Inc()
		return 0
	}
	return w.enqueue(&Event{Kind: kind, auxData: data})
}

// enqueue stamps ev with the next sequence number and the time and offers
// it to the writer goroutine without blocking. It returns the sequence
// number, or 0 when the writer is closed or the queue is full (the event
// is dropped and counted).
func (w *Writer) enqueue(ev *Event) uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		w.mDropped.Inc()
		return 0
	}
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	w.seq++
	ev.Seq = w.seq
	ev.TS = time.Now().UnixMicro()
	select {
	case w.ch <- ev:
		w.mQueueDepth.Set(int64(len(w.ch)))
		return ev.Seq
	default:
		w.mDropped.Inc()
		return 0
	}
}

// Sync is a durability barrier: it blocks until every event admitted to
// the queue before the call is flushed and fsynced to the active segment,
// then reports the log's error state. Callers persisting a progress
// cursor (the chain scanner's checkpoint) call Sync first, so the cursor
// never claims events that a crash could still lose. Unlike Emit, Sync
// blocks when the queue is full — a barrier that could be dropped would
// be no barrier at all. Nil-safe; returns the first write error, if any.
func (w *Writer) Sync() error {
	if w == nil {
		return nil
	}
	ch := make(chan error, 1)
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		return w.Err()
	}
	w.ch <- &Event{syncCh: ch}
	w.mu.RUnlock()
	return <-ch
}

// Err reports the first write error, if any. The writer keeps draining
// after an error (Emit must never block the recovery path), so this is
// how operators learn the log went bad.
func (w *Writer) Err() error {
	if p := w.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close drains every queued event, flushes, fsyncs, and closes the active
// segment. Emits after Close are dropped (and counted). Safe to call
// once; the fsync-on-drain is what makes SIGTERM ordering safe — by the
// time the process exits, every admitted event is on disk.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return w.Err()
	}
	w.closed = true
	close(w.ch)
	w.mu.Unlock()
	<-w.done
	return w.Err()
}

// loop is the writer goroutine: encode, append, rotate, and on channel
// close flush + fsync.
func (w *Writer) loop(f *os.File, size int64) {
	defer close(w.done)
	bw := bufio.NewWriterSize(f, 64<<10)
	fail := func(err error) {
		if w.werr.Load() == nil {
			w.werr.Store(&err)
		}
		w.mErrors.Inc()
	}
	for ev := range w.ch {
		w.mQueueDepth.Set(int64(len(w.ch)))
		if ev.syncCh != nil {
			if err := bw.Flush(); err != nil {
				fail(err)
			} else if err := f.Sync(); err != nil {
				fail(err)
			}
			ev.syncCh <- w.Err()
			continue
		}
		line, err := encodeLine(ev)
		if err != nil {
			fail(err)
			continue
		}
		if _, err := bw.Write(line); err != nil {
			fail(err)
			continue
		}
		w.pushTail(line)
		w.mWritten.Inc()
		w.mBytes.Add(uint64(len(line)))
		size += int64(len(line))
		if size >= w.cfg.MaxBytes {
			if err := bw.Flush(); err != nil {
				fail(err)
			}
			f.Close()
			if err := rotate(w.cfg.Path, w.cfg.MaxSegments); err != nil {
				fail(err)
			}
			w.mRotations.Inc()
			nf, nsize, err := openSegment(w.cfg.Path)
			if err != nil {
				// Could not reopen: keep draining so Emit never blocks, but
				// the log is broken from here.
				fail(err)
				for ev := range w.ch {
					if ev.syncCh != nil {
						ev.syncCh <- w.Err()
						continue
					}
					w.mDropped.Inc()
				}
				return
			}
			f, size = nf, nsize
			bw.Reset(f)
		}
		// Idle flush: when the queue has drained, push the buffer to the
		// kernel before blocking on the next event. Under load the flush
		// amortizes over whole bursts; when quiet it bounds what a crash
		// (SIGKILL, OOM) can lose to the events still in the channel —
		// which is what lets a cluster reconcile a killed shard's log
		// against router request ids instead of guessing at a lost tail.
		if len(w.ch) == 0 {
			if err := bw.Flush(); err != nil {
				fail(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		fail(err)
	}
	if err := f.Sync(); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

// encodeLine renders one NDJSON line (with trailing newline). Aux records
// splice their pre-marshaled payload under "data".
func encodeLine(ev *Event) ([]byte, error) {
	if ev.auxData != nil {
		line := []byte(`{"seq":` + strconv.FormatUint(ev.Seq, 10) +
			`,"ts":` + strconv.FormatInt(ev.TS, 10) +
			`,"kind":`)
		kindJSON, err := json.Marshal(ev.Kind)
		if err != nil {
			return nil, err
		}
		line = append(line, kindJSON...)
		line = append(line, `,"data":`...)
		line = append(line, ev.auxData...)
		line = append(line, '}', '\n')
		return line, nil
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// pushTail records the line in the recent-events ring. encodeLine returns
// a fresh buffer per line and the bufio.Writer copies what it is given, so
// the ring keeps the line itself.
func (w *Writer) pushTail(line []byte) {
	w.tailMu.Lock()
	w.tail[w.tailNext] = line
	w.tailNext = (w.tailNext + 1) % len(w.tail)
	if w.tailLen < len(w.tail) {
		w.tailLen++
	}
	w.tailMu.Unlock()
}

// Tail returns up to n of the most recently written lines, oldest first,
// each including its trailing newline. Nil-safe.
func (w *Writer) Tail(n int) [][]byte {
	if w == nil || n <= 0 {
		return nil
	}
	w.tailMu.Lock()
	defer w.tailMu.Unlock()
	if n > w.tailLen {
		n = w.tailLen
	}
	out := make([][]byte, 0, n)
	for i := w.tailLen - n; i < w.tailLen; i++ {
		idx := (w.tailNext - w.tailLen + i + 2*len(w.tail)) % len(w.tail)
		out = append(out, w.tail[idx])
	}
	return out
}

// rotate shifts path -> path.1 -> path.2 ... dropping the oldest past
// maxSegments.
func rotate(path string, maxSegments int) error {
	os.Remove(path + "." + strconv.Itoa(maxSegments))
	for i := maxSegments - 1; i >= 1; i-- {
		from := path + "." + strconv.Itoa(i)
		if _, err := os.Stat(from); err != nil {
			continue
		}
		if err := os.Rename(from, path+"."+strconv.Itoa(i+1)); err != nil {
			return fmt.Errorf("eventlog: rotate: %w", err)
		}
	}
	if err := os.Rename(path, path+".1"); err != nil {
		return fmt.Errorf("eventlog: rotate: %w", err)
	}
	return nil
}

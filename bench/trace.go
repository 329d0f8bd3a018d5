package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names: one per public function the traced runs call into.
const (
	spanContract   = "contract"
	spanRequest    = "request"
	spanDeployment = "deployment"
	spanHandler    = "server.Handler.ServeHTTP"
	spanLoopback   = "server.loopback"
	spanRouter     = "cluster.Router"
	spanKeccak     = "keccak.Sum256"
	spanDisasm     = "evm.Disassemble"
	spanDispatch   = "core.ExtractSelectors"
	spanExplore    = "core.TraceFunction"
	spanInfer      = "core.Infer"
	spanRecover    = "core.RecoverContext"
	spanBlockAt    = "chain.BlockAt"
	spanResolve    = "scan.resolve"
	spanProxy      = "scan.ParseMinimalProxy"
	spanDelegate   = "evm.DelegateTarget"
	spanCodeAt     = "chain.CodeAt"
	spanPeek       = "core.Cache.Peek"
	spanPublish    = "scan.publish"
	spanSync       = "eventlog.Writer.Sync"
	spanEFSDSave   = "efsd.DB.Save"
	spanCkptSave   = "scan.Checkpoint.Save"
	spanStoreLoad  = "store.Load"
	spanStoreSave  = "store.Save"
)

// span is one timed call: its layer function, its place in the request's
// call tree and its interval, in nanoseconds since the tracer's epoch.
type span struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Request int64  `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Items   int64  `json:"items,omitempty"`
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	count int64
	items int64
	total time.Duration
	self  time.Duration // total minus the time child spans cover
}

// layers maps span names to their totals.
type layers map[string]*layerTotal

func (l layers) total(name string) time.Duration {
	if t := l[name]; t != nil {
		return t.total
	}
	return 0
}

func (l layers) count(name string) int64 {
	if t := l[name]; t != nil {
		return t.count
	}
	return 0
}

func (l layers) items(name string) int64 {
	if t := l[name]; t != nil {
		return t.items
	}
	return 0
}

func (l layers) add(o layers) {
	for name, t := range o {
		s := l[name]
		if s == nil {
			s = &layerTotal{}
			l[name] = s
		}
		s.count += t.count
		s.items += t.items
		s.total += t.total
		s.self += t.self
	}
}

// maxKeptSpans bounds the spans one tracer keeps for the span file; the
// totals cover every span regardless.
const maxKeptSpans = 50_000

// tracer records the spans of one goroutine's requests. Spans are folded
// into per-layer totals when a request finishes and kept in memory for
// the span file written at exit. A nil *tracer records nothing, so one
// code path serves the traced and the untraced run.
type tracer struct {
	epoch  time.Time
	req    int64   // id of the current request
	open   []int32 // indexes into cur of the spans not yet ended
	cur    []span
	layers layers
	kept   []span
	// children is finish's scratch: per span of cur, the time its child
	// spans cover.
	children []int64
}

// newTracer returns a tracer whose request ids start after firstID-1;
// tracers used side by side get disjoint id ranges.
func newTracer(epoch time.Time, firstID int64) *tracer {
	return &tracer{epoch: epoch, req: firstID - 1, layers: layers{}}
}

// tracers returns n tracers sharing one epoch, with disjoint request ids.
func tracers(n int) []*tracer {
	epoch := time.Now()
	ts := make([]*tracer, n)
	for i := range ts {
		ts[i] = newTracer(epoch, int64(i)<<40)
	}
	return ts
}

// begin starts the next request; spans started until finish belong to it.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.req++
	t.cur = t.cur[:0]
	t.open = t.open[:0]
}

// current sums the durations of the current request's spans named name.
func (t *tracer) current(name string) time.Duration {
	var d int64
	for _, s := range t.cur {
		if s.Name == name {
			d += s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// start opens a span under the innermost open one and returns its handle.
func (t *tracer) start(name string) int32 {
	if t == nil {
		return 0
	}
	var parent int32
	if n := len(t.open); n > 0 {
		parent = t.open[n-1] + 1
	}
	t.cur = append(t.cur, span{
		Name:    name,
		ID:      int32(len(t.cur) + 1),
		Parent:  parent,
		Request: t.req,
		StartNS: int64(time.Since(t.epoch)),
	})
	i := int32(len(t.cur) - 1)
	t.open = append(t.open, i)
	return i
}

// end closes span h, which must be the innermost open one.
func (t *tracer) end(h int32) { t.endItems(h, 0) }

// endItems closes span h and attaches a count of the items it handled.
func (t *tracer) endItems(h int32, items int64) {
	if t == nil {
		return
	}
	s := &t.cur[h]
	s.EndNS = int64(time.Since(t.epoch))
	s.Items = items
	t.open = t.open[:len(t.open)-1]
}

// finish folds the current request's spans into the totals.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	children := t.children[:0]
	for range t.cur {
		children = append(children, 0)
	}
	t.children = children
	for _, s := range t.cur {
		if s.Parent > 0 {
			children[s.Parent-1] += s.EndNS - s.StartNS
		}
	}
	for i, s := range t.cur {
		lt := t.layers[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			t.layers[s.Name] = lt
		}
		d := s.EndNS - s.StartNS
		lt.count++
		lt.items += s.Items
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - children[i])
	}
	if room := maxKeptSpans - len(t.kept); room > 0 {
		if room > len(t.cur) {
			room = len(t.cur)
		}
		t.kept = append(t.kept, t.cur[:room]...)
	}
	t.cur = t.cur[:0]
}

// merged sums the totals of several tracers.
func merged(ts ...*tracer) layers {
	out := layers{}
	for _, t := range ts {
		if t != nil {
			out.add(t.layers)
		}
	}
	return out
}

// writeSpans writes the kept spans of ts to dir/name.jsonl, one JSON span
// per line.
func writeSpans(dir, name string, ts ...*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		if t == nil {
			continue
		}
		for i := range t.kept {
			if err := enc.Encode(&t.kept[i]); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// printLedger prints the per-layer self times of a traced run per
// operation, largest first.
func printLedger(w *os.File, l layers, ops int64) {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return l[names[i]].self > l[names[j]].self })
	fmt.Fprintf(w, "%-26s %10s %12s %12s\n", "span", "calls", "self us/op", "total us/op")
	for _, n := range names {
		t := l[n]
		fmt.Fprintf(w, "%-26s %10d %12.3f %12.3f\n", n, t.count,
			ratio(t.self.Seconds()*1e6, float64(ops)), ratio(t.total.Seconds()*1e6, float64(ops)))
	}
}

// Command bench is the repository benchmark. Each run drives one workload
// through the public entry points of core, server, cluster and scan, with
// inputs generated from the seed by the repository's own generators, checks
// every output against ground truth, and prints one JSON result line last.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash bench/run.sh --workload corpus-e3 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out results/parent
//	bash bench/run.sh --compare 'results/parent/*.json' 'results/change/*.json'
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 is
// a separate run: it times every call into a layer's public functions,
// writes the spans under --spans and reports the per-layer metrics. See
// README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration
	traced   bool
	// workDir is a directory the workload may write; it is removed after
	// the run.
	workDir  string
	spansDir string
}

// workload runs one workload and fills r.
type workload struct {
	name string
	run  func(cfg runConfig, r *report) error
}

var workloads = []workload{
	{"corpus-e3", runCorpusE3},
	{"synth-latency", runSynthLatency},
	{"fleet-open", runFleetOpen},
	{"scan", runScan},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run, or \"all\" for each in its own child process")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "seconds each run measures")
		trace    = flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
		spansDir = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
		outDir   = flag.String("out", "", "directory to also write each result to as <workload>-s<seed>-t<trace>.json")
		compare  = flag.Bool("compare", false, "compare two sets of --out results by BENCHMARK.json's directions and bounds: -compare 'A/*.json' 'B/*.json'")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare("BENCHMARK.json", flag.Args()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workDir:  filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid())),
		spansDir: *spansDir,
	}
	res, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *outDir != "" {
		if err := writeResult(*outDir, cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printResult(os.Stdout, res)
}

// runOne runs cfg's workload and builds its result line.
func runOne(cfg runConfig) (result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.workDir)
	r := newReport()
	if err := w.run(cfg, r); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return r.result(cfg.traced)
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and the last set-up state is the one measured.
const setupRuns = 5

// repeatSetup runs setup setupRuns times, releasing every state but the
// last, and returns the last state with the median set-up seconds.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		st = s
	}
	return st, median(secs), nil
}

// another reports whether a loop of whole rounds, the last of which took
// last, starts one more before deadline: only if it would end nearer the
// deadline than now, so the measured time stays within half a round of
// its budget.
func another(deadline time.Time, last time.Duration) bool {
	return time.Now().Add(last / 2).Before(deadline)
}

// printResult prints each metric with its unit, then the JSON result as
// the last line.
func printResult(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, _ := json.Marshal(res) // a result has no unencodable values: report.result rejects NaN and Inf
	fmt.Fprintln(w, string(line))
}

func writeResult(dir string, cfg runConfig, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	data, err := json.MarshalIndent(runFile{Workload: cfg.workload, Seed: cfg.seed, Trace: trace, result: res}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", cfg.workload, cfg.seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a fresh child process of this binary, so
// no heap or GC state carries from one workload into the next. It returns
// the exit code: 0 when every child succeeded with correct outputs.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		childArgs := append(append([]string(nil), args...), "--workload", w.name) // the last --workload wins
		cmd := exec.Command(self, childArgs...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("== %s\n", w.name)
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: outputs not correct\n", w.name)
			code = 1
		}
	}
	return code
}

// runCompare prints -compare's verdict table and returns the exit code: 1
// when a metric got worse, 2 on bad input.
func runCompare(benchPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result globs: the parent's, then the change's")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return fail(err)
	}
	parent, err := loadRuns(args[0])
	if err != nil {
		return fail(err)
	}
	change, err := loadRuns(args[1])
	if err != nil {
		return fail(err)
	}
	if n := compareRuns(os.Stdout, def, parent, change); n > 0 {
		fmt.Printf("%d metric(s) worse\n", n)
		return 1
	}
	return 0
}

// Command sigrec recovers function signatures from EVM runtime bytecode.
//
// Usage:
//
//	sigrec 0x6080...            # hex bytecode as an argument
//	sigrec -f contract.hex      # or from a file
//	echo 0x6080... | sigrec     # or from stdin
//	sigrec -db sigs.json ...    # annotate with names from a signature DB
//
// Output: one line per recovered function: the 4-byte id, the parameter
// type list, and the detected source language. SigRec recovers ids and
// types from the bytecode alone; a signature database (-db, the format
// cmd/corpusgen and efsd.Save emit) only adds human-readable names, and
// only when its types agree with the recovery.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sigrec"
	"sigrec/internal/core"
	"sigrec/internal/efsd"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/server"
	"sigrec/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigrec:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file     = flag.String("f", "", "read hex bytecode from a file")
		rules    = flag.Bool("rules", false, "print rule-usage statistics")
		explain  = flag.Bool("explain", false, "print per-parameter rule trails")
		dbPath   = flag.String("db", "", "JSON signature database for name annotation")
		deployed = flag.Bool("deployed", false, "input is deployment (init) bytecode: execute it to extract the runtime first")
		jsonOut  = flag.Bool("json", false, "emit JSON instead of text")
		timeout  = flag.Duration("timeout", 0, "per-contract wall-clock deadline (e.g. 100ms; 0 = unbounded); on expiry a partial result is printed, flagged truncated")
		budget   = flag.Int("budget", 0, "TASE step budget per exploration (0 = built-in default)")
		storeDir = flag.String("store-dir", "", "persistent result-store directory: repeat runs over the same bytecode are served from disk (empty = disabled)")
		stats    = flag.Bool("stats", false, "print the telemetry exposition (timings, path counts, rule hits) after the run")
		trace    = flag.Bool("trace", false, "print the recovery's span tree (phase timings, per-selector exploration counters) to stderr")
		eventLog = flag.String("event-log", "", "append the recovery's wide event (NDJSON) to this file, replayable with sigrec-analyze")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString())
		return nil
	}

	var db *efsd.DB
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if db, err = efsd.Load(f); err != nil {
			return err
		}
	}

	var input string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		input = string(b)
	case flag.NArg() > 0:
		input = flag.Arg(0)
	default:
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		input = string(b)
	}

	opts := sigrec.Options{Deadline: *timeout, StepBudget: *budget}
	if *storeDir != "" {
		st, serr := store.Open(*storeDir, store.Options{})
		if serr != nil {
			return serr
		}
		defer st.Close()
		// A one-shot CLI run needs almost no memory tier; the disk store
		// does the cross-invocation work.
		opts.Cache = core.NewTieredCache(16, st).Cache
	}
	code, err := decodeHexInput(input)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *eventLog != "" {
		w, werr := eventlog.New(eventlog.Config{Path: *eventLog})
		if werr != nil {
			return werr
		}
		defer w.Close() // drains, flushes, fsyncs the one event
		opts.EventLog = w
		ctx, _ = eventlog.NewContext(ctx, "cli")
	}
	var rec *obs.Recovery
	if *trace {
		ctx, rec = obs.New(obs.Config{}).StartRecovery(ctx, "cli")
	}
	var res sigrec.Result
	if *deployed {
		res, err = sigrec.RecoverDeploymentContext(ctx, code, opts)
	} else {
		res, err = sigrec.RecoverContext(ctx, code, opts)
	}
	if rec != nil {
		// The trace header carries request_id (and event_seq when -event-log
		// is set), the join keys into logs and the wide-event file.
		rec.Finish(res.Truncated, err)
		rec.WriteText(os.Stderr)
	}
	if err != nil {
		return err
	}
	if *stats {
		defer sigrec.WriteMetrics(os.Stderr)
	}
	if *jsonOut {
		return emitJSON(os.Stdout, res, db)
	}
	for _, f := range res.Functions {
		note := ""
		if f.Truncated {
			note = "  (truncated analysis)"
		}
		display := f.TypeList()
		if db != nil {
			if known, ok := db.Lookup(f.Selector); ok {
				// Annotate with the known name when the types agree; flag
				// disagreements, which usually mean the database is stale.
				if typeList(known) == f.TypeList() {
					display = known
				} else {
					note += fmt.Sprintf("  (db has %s)", known)
				}
			}
		}
		fmt.Printf("%s %s  [%s]%s\n", f.Selector.Hex(), display, f.Language, note)
		if *explain {
			for _, line := range f.Explain() {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	if *rules {
		fmt.Println(strings.Repeat("-", 40))
		for r := 1; r <= 31; r++ {
			fmt.Printf("R%-3d %d\n", r, res.Rules[r])
		}
	}
	return nil
}

// emitJSON writes the wire schema the sigrecd server returns
// (server.RecoverResponse), so CLI and server outputs are diffable.
func emitJSON(w io.Writer, res sigrec.Result, db *efsd.DB) error {
	var annotate server.Annotate
	if db != nil {
		annotate = db.Lookup
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(server.ResponseFromResult(res, annotate))
}

// decodeHexInput tolerates a 0x prefix and surrounding whitespace and
// reports malformed input with a typed *sigrec.HexInputError.
func decodeHexInput(s string) ([]byte, error) {
	return sigrec.DecodeHex(s)
}

func typeList(canonical string) string {
	if i := strings.IndexByte(canonical, '('); i >= 0 {
		return canonical[i:]
	}
	return "()"
}

package core

import (
	"context"
	"testing"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/eventlog"
	"sigrec/internal/solc"
)

// deepNestedCode compiles an E4-style deep nested-array contract:
// dimension 20, inner widths of width, outer dimension 2 (Fig. 18's sweep
// shape). width 1 recovers fully in well under a millisecond; width 2 has
// 2^20 static head slots and is the pathological case for anything that
// grows with them.
func deepNestedCode(t testing.TB, width int) ([]byte, abi.Signature) {
	t.Helper()
	ty := abi.Uint(256)
	for d := 0; d < 19; d++ {
		ty = abi.ArrayOf(ty, width)
	}
	ty = abi.ArrayOf(ty, 2)
	sig := abi.Signature{Name: "sweep", Inputs: []abi.Type{ty}}
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{
		{Sig: sig, Mode: solc.External},
	}}, solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	return code, sig
}

func TestStepBudgetTruncatesDeepNestedArray(t *testing.T) {
	code, sig := deepNestedCode(t, 1)

	// A tiny step budget must yield a best-effort result flagged Truncated.
	res, err := RecoverContext(context.Background(), code, Options{StepBudget: 200})
	if err != nil {
		t.Fatalf("tiny budget: %v", err)
	}
	if !res.Truncated {
		t.Error("tiny budget: result not flagged Truncated")
	}

	// The default budget must recover the exact dimension-20 type.
	res, err = RecoverContext(context.Background(), code, Options{})
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if res.Truncated {
		t.Error("default budget: result unexpectedly Truncated")
	}
	if len(res.Functions) != 1 {
		t.Fatalf("default budget: %d functions", len(res.Functions))
	}
	got := abi.Signature{Name: "f", Inputs: res.Functions[0].Inputs}
	if !got.EqualTypes(sig) {
		t.Errorf("default budget: recovered %s", got.TypeList())
	}
}

func TestDeadlineBoundsPathologicalContract(t *testing.T) {
	// Width-2 nesting at dimension 20 once ran for ~350 ms unbounded, most
	// of it expanding the array's 2^20 head slots one map entry at a time;
	// with claims kept as intervals it takes a few milliseconds. Under a
	// short deadline the recovery must still return promptly (deadline
	// checks fire every few hundred symbolic steps) with a partial,
	// Truncated result instead of stalling a batch.
	code, _ := deepNestedCode(t, 2)
	deadline := 2 * time.Millisecond
	start := time.Now()
	res, err := RecoverContext(context.Background(), code, Options{Deadline: deadline})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline recovery: %v", err)
	}
	if !res.Truncated {
		t.Error("deadline hit but result not flagged Truncated")
	}
	// 10x headroom per the operational target, plus slack for the race
	// detector and loaded CI machines.
	if limit := 20 * deadline; elapsed > limit {
		t.Errorf("recovery took %v, want <= %v", elapsed, limit)
	}
}

// TestDeadlineSweep: across deadlines from 2 to 50 ms the pathological
// contract's recovery ends within 20x the deadline. A term that grows with
// the input and does not poll the deadline (as the per-slot claim map
// did) overruns the longer deadlines first.
func TestDeadlineSweep(t *testing.T) {
	code, _ := deepNestedCode(t, 2)
	for _, ms := range []int{2, 5, 10, 20, 50} {
		deadline := time.Duration(ms) * time.Millisecond
		start := time.Now()
		if _, err := RecoverContext(context.Background(), code, Options{Deadline: deadline}); err != nil {
			t.Fatalf("%v deadline: %v", deadline, err)
		}
		if elapsed, limit := time.Since(start), 20*deadline; elapsed > limit {
			t.Errorf("%v deadline: recovery took %v, want <= %v", deadline, elapsed, limit)
		}
	}
}

// TestDeadlineKeepsArrayType: a deadline that cuts a large external static
// array's exploration short still returns the array, flagged Truncated.
// The dispatcher walk stops at the selector test, so the deadline is spent
// on the function's own exploration, whose first loop iteration already
// shows the bound checks.
//
// The truncation assertion is keyed on the phases the deadline bounds
// (disassembly, dispatcher walk, exploration, from the recovery's wide
// event), not on total elapsed time: inference and scheduling run after
// the cut. The exploration polls the clock every deadlineCheckMask+1
// steps, so it may end up to one poll interval past the deadline uncut;
// running two intervals past it means the deadline was not honoured.
// Inference is not cancellable, so the recovery as a whole is held to the
// 20x budget of TestDeadlineSweep: inference over the cut trace must not
// grow with the array's 2^20 head slots (a per-slot claim map overruns).
func TestDeadlineKeepsArrayType(t *testing.T) {
	for _, sigStr := range []string{"f(uint256[1024])", "f(uint256[1024][1024])"} {
		t.Run(sigStr, func(t *testing.T) {
			sig, err := abi.ParseSignature(sigStr)
			if err != nil {
				t.Fatal(err)
			}
			code, err := solc.Compile(solc.Contract{Functions: []solc.Function{
				{Sig: sig, Mode: solc.External},
			}}, solc.Config{Version: solc.DefaultVersion()})
			if err != nil {
				t.Fatal(err)
			}
			// Unbounded, f(uint256[1024]) explores for 5-7 ms on a 2-vCPU VM.
			deadline := 5 * time.Millisecond
			var ev eventlog.Event
			start := time.Now()
			res, err := recoverUncached(context.Background(), code, Options{Deadline: deadline}, &ev)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Functions) != 1 {
				t.Fatalf("recovered %d functions, want 1", len(res.Functions))
			}
			f := res.Functions[0]
			if got, want := f.TypeList(), sig.TypeList(); got != want {
				t.Errorf("recovered %s, want %s", got, want)
			}
			bounded := time.Duration(ev.DisasmUS+ev.DispatchUS+ev.ExploreUS) * time.Microsecond
			poll := time.Duration(ev.ExploreUS) * time.Microsecond * (deadlineCheckMask + 1) / time.Duration(max(ev.Steps, 1))
			if bounded >= deadline+2*poll && (!f.Truncated || !res.Truncated) {
				t.Errorf("explored for %v against a %v deadline (poll interval %v): function truncated=%v, result truncated=%v, want both set",
					bounded, deadline, poll, f.Truncated, res.Truncated)
			}
			if limit := 20 * deadline; elapsed > limit {
				t.Errorf("recovery took %v (inference %v µs), want <= %v", elapsed, ev.InferUS, limit)
			}
		})
	}
}

func TestContextCancellationStopsRecovery(t *testing.T) {
	code, _ := deepNestedCode(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RecoverContext(ctx, code, Options{})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled recovery took %v", elapsed)
	}
	// An already-cancelled context stops even the dispatcher walk, so the
	// selector list may be empty (ErrNoFunctions); either way the result
	// must be flagged Truncated.
	if err != nil && err != ErrNoFunctions {
		t.Fatalf("cancelled recovery: %v", err)
	}
	if !res.Truncated {
		t.Error("cancelled recovery not flagged Truncated")
	}
}

func TestMaxPathsBound(t *testing.T) {
	code, _ := deepNestedCode(t, 2)
	res, err := RecoverContext(context.Background(), code, Options{MaxPaths: 2})
	// Two paths may not even clear the dispatcher's range checks, in which
	// case the selector list comes back empty; either way the bound must
	// surface as truncation, never as unbounded exploration.
	if err != nil && err != ErrNoFunctions {
		t.Fatalf("max-paths recovery: %v", err)
	}
	if !res.Truncated {
		t.Error("2-path bound on a forking contract not flagged Truncated")
	}
}

func TestTelemetryCountersAdvance(t *testing.T) {
	code, _ := deepNestedCode(t, 1)
	before := Metrics().Snapshot()
	if _, err := RecoverContext(context.Background(), code, Options{}); err != nil {
		t.Fatal(err)
	}
	after := Metrics().Snapshot()
	for _, name := range []string{
		"sigrec_recoveries_total",
		"sigrec_functions_recovered_total",
		"sigrec_tase_paths_explored_total",
		"sigrec_tase_steps_total",
		"sigrec_tase_events_collected_total",
	} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("%s did not advance (%d -> %d)", name, before.Counters[name], after.Counters[name])
		}
	}
	h := after.Histograms["sigrec_recover_duration_microseconds"]
	if h.Count <= before.Histograms["sigrec_recover_duration_microseconds"].Count {
		t.Error("latency histogram did not record the recovery")
	}
}

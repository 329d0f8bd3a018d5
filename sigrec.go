// Package sigrec recovers function signatures from Ethereum smart-contract
// runtime bytecode, implementing the SigRec system: function ids are
// extracted from the dispatcher, and parameter types are inferred with
// type-aware symbolic execution (TASE) over the EVM instruction patterns
// that access the call data -- no source code and no signature database.
//
// Quick start:
//
//	sigs, err := sigrec.Recover(bytecode)
//	for _, f := range sigs.Functions {
//	    fmt.Println(f.Selector, f.TypeList())
//	}
//
// The internal packages provide the full substrate: an EVM disassembler and
// interpreter, an ABI codec, miniature Solidity/Vyper compilers used for
// evaluation, the ParChecker call-data validator, fuzzing, and the Erays+
// reverse-engineering enhancer. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduced evaluation.
package sigrec

import (
	"context"
	"fmt"
	"io"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/evm"
	"sigrec/internal/telemetry"
)

// Function is one recovered public/external function.
type Function = core.RecoveredFunction

// Result is the recovery output for one contract.
type Result = core.Result

// RuleStats counts inference-rule applications (R1-R31).
type RuleStats = core.RuleStats

// Selector is a 4-byte function id.
type Selector = abi.Selector

// Options bounds and instruments a recovery: TASE step budget, explored-
// path cap, per-contract wall-clock deadline, an optional shared result
// cache and an optional wide-event log. The zero value selects the
// built-in budgets.
type Options = core.Options

// Cache is a size-bounded LRU of recovery results keyed by keccak256 of
// the bytecode, safe for concurrent use. Share one across RecoverContext
// and RecoverAllContext calls to dedupe repeated bytecode (deployed
// contracts are massively duplicated on-chain).
type Cache = core.Cache

// NewCache returns a Cache bounded to maxEntries results.
func NewCache(maxEntries int) *Cache { return core.NewCache(maxEntries) }

// BatchItem is one contract's outcome in a batch recovery.
type BatchItem = core.BatchItem

// MetricsSnapshot is a point-in-time copy of the pipeline telemetry:
// counters (recoveries, truncations, TASE paths/steps/events, cache
// hits/misses), gauges, and the recovery and phase latency histograms.
type MetricsSnapshot = telemetry.Snapshot

// Recover runs SigRec on runtime bytecode.
func Recover(code []byte) (Result, error) {
	return core.Recover(code)
}

// RecoverContext runs SigRec under resource bounds: budgets and deadline
// from opts, plus cancellation/deadline from ctx. A hit bound returns a
// partial Result with Truncated set rather than an error.
func RecoverContext(ctx context.Context, code []byte, opts Options) (Result, error) {
	return core.RecoverContext(ctx, code, opts)
}

// RecoverAll recovers many contracts concurrently with a bounded worker
// pool (workers <= 0 selects GOMAXPROCS), applying opts to every item.
// Results come back in input order with per-item errors and truncation.
func RecoverAll(ctx context.Context, codes [][]byte, workers int, opts Options) []BatchItem {
	return core.RecoverAllContext(ctx, codes, workers, opts)
}

// Metrics returns a snapshot of the pipeline telemetry. Counters are
// cumulative for the process; diff two snapshots to meter a single run.
func Metrics() MetricsSnapshot {
	return core.Metrics().Snapshot()
}

// WriteMetrics writes the telemetry exposition (a Prometheus-flavoured
// text format) to w.
func WriteMetrics(w io.Writer) error {
	_, err := core.Metrics().Snapshot().WriteTo(w)
	return err
}

// HexInputError is the typed error DecodeHex (and so RecoverHex and the
// sigrecd serving layer) returns for malformed hex bytecode: odd-length
// input or a non-hex character. Match it with errors.As to distinguish
// bad input from recovery failures.
type HexInputError = core.HexInputError

// DecodeHex decodes contract bytecode from hex, tolerating an optional
// 0x/0X prefix and surrounding whitespace. Malformed input yields a
// *HexInputError rather than a generic error.
func DecodeHex(s string) ([]byte, error) {
	return core.DecodeHex(s)
}

// RecoverHex runs SigRec on 0x-prefixed or bare hex bytecode.
func RecoverHex(hexCode string) (Result, error) {
	code, err := DecodeHex(hexCode)
	if err != nil {
		return Result{}, fmt.Errorf("sigrec: decode hex: %w", err)
	}
	return Recover(code)
}

// RecoverFunction recovers a single function by its known id.
func RecoverFunction(code []byte, selector Selector) (Function, RuleStats) {
	return core.RecoverFunction(code, selector)
}

// RecoverDeployment accepts deployment bytecode (constructor/init code),
// executes it to extract the runtime bytecode, and recovers that. Use this
// when the input is a contract-creation transaction's payload rather than
// the deployed code.
func RecoverDeployment(deployCode []byte) (Result, error) {
	return RecoverDeploymentContext(context.Background(), deployCode, Options{})
}

// RecoverDeploymentContext is RecoverDeployment under resource bounds.
func RecoverDeploymentContext(ctx context.Context, deployCode []byte, opts Options) (Result, error) {
	runtime, err := evm.ExtractRuntime(deployCode)
	if err != nil {
		return Result{}, fmt.Errorf("sigrec: %w", err)
	}
	return core.RecoverContext(ctx, runtime, opts)
}

// ParseSignature parses "name(type1,type2,...)" into the ABI representation
// (useful for computing ids of known signatures).
func ParseSignature(s string) (abi.Signature, error) {
	return abi.ParseSignature(s)
}

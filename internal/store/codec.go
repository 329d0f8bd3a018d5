package store

import (
	"encoding/json"
	"fmt"

	"sigrec/internal/abi"
	"sigrec/internal/core"
)

// The payload is JSON of a compact DTO: parameter types travel as their
// canonical strings and are re-parsed on load, so the on-disk format is
// decoupled from abi.Type's in-memory shape and every loaded type has been
// through the validating parser. Selectors, rule ids and languages are
// range-checked too: a corrupt-but-crc-valid payload, or a peer's answer,
// cannot smuggle a malformed field into the pipeline.

type fnPayload struct {
	Selector   string   `json:"s"`
	Types      []string `json:"t,omitempty"`
	ParamRules [][]int  `json:"r,omitempty"`
	Language   int      `json:"l,omitempty"`
	Truncated  bool     `json:"x,omitempty"`
}

type resultPayload struct {
	Functions []fnPayload `json:"f,omitempty"`
	Rules     []uint64    `json:"rules,omitempty"`
	Truncated bool        `json:"trunc,omitempty"`
}

// EncodeResult is the one lossless encoding of a recovery Result: the
// store's record payload, and the body of the cluster's peer-fill answer.
// DecodeResult inverts it.
func EncodeResult(res core.Result) ([]byte, error) {
	p := resultPayload{Truncated: res.Truncated}
	for r := 1; r <= core.NumRules; r++ {
		if res.Rules[r] != 0 {
			p.Rules = res.Rules[:]
			break
		}
	}
	for _, f := range res.Functions {
		fp := fnPayload{
			Selector:  f.Selector.Hex(),
			Language:  int(f.Language),
			Truncated: f.Truncated,
		}
		for _, t := range f.Inputs {
			fp.Types = append(fp.Types, t.String())
		}
		for _, rules := range f.ParamRules {
			ids := make([]int, len(rules))
			for i, r := range rules {
				ids[i] = int(r)
			}
			fp.ParamRules = append(fp.ParamRules, ids)
		}
		p.Functions = append(p.Functions, fp)
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return b, nil
}

// DecodeResult parses and validates an EncodeResult payload.
func DecodeResult(b []byte) (core.Result, error) {
	var p resultPayload
	if err := json.Unmarshal(b, &p); err != nil {
		return core.Result{}, fmt.Errorf("store: decode: %w", err)
	}
	res := core.Result{Truncated: p.Truncated}
	if len(p.Rules) > 0 {
		if len(p.Rules) != len(res.Rules) {
			return core.Result{}, fmt.Errorf("store: decode: %d rule slots, want %d", len(p.Rules), len(res.Rules))
		}
		copy(res.Rules[:], p.Rules)
	}
	for _, fp := range p.Functions {
		sel, err := parseSelector(fp.Selector)
		if err != nil {
			return core.Result{}, err
		}
		lang := core.Language(fp.Language)
		if lang != core.LangSolidity && lang != core.LangVyper {
			return core.Result{}, fmt.Errorf("store: decode: language %d out of range", fp.Language)
		}
		fn := core.RecoveredFunction{
			Selector:  sel,
			Language:  lang,
			Truncated: fp.Truncated,
		}
		for _, ts := range fp.Types {
			t, err := abi.ParseType(ts)
			if err != nil {
				return core.Result{}, fmt.Errorf("store: decode type %q: %w", ts, err)
			}
			fn.Inputs = append(fn.Inputs, t)
		}
		for _, ids := range fp.ParamRules {
			rules := make([]core.RuleID, len(ids))
			for i, id := range ids {
				if id < 1 || id > core.NumRules {
					return core.Result{}, fmt.Errorf("store: decode: rule id %d out of range", id)
				}
				rules[i] = core.RuleID(id)
			}
			fn.ParamRules = append(fn.ParamRules, rules)
		}
		res.Functions = append(res.Functions, fn)
	}
	return res, nil
}

func parseSelector(s string) (abi.Selector, error) {
	var sel abi.Selector
	if len(s) != 10 || s[:2] != "0x" {
		return sel, fmt.Errorf("store: decode: bad selector %q", s)
	}
	for i := 0; i < 4; i++ {
		hi, ok1 := hexNibble(s[2+2*i])
		lo, ok2 := hexNibble(s[3+2*i])
		if !ok1 || !ok2 {
			return sel, fmt.Errorf("store: decode: bad selector %q", s)
		}
		sel[i] = hi<<4 | lo
	}
	return sel, nil
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false
	}
}

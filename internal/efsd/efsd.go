// Package efsd simulates the Ethereum Function Signature Database that the
// baseline tools (OSD, EBD, JEB, Eveem, Gigahorse) query by function id.
//
// The real EFSD is a crowd-sourced mapping from 4-byte ids to textual
// signatures with partial coverage (the paper measures that over 49% of
// open-source function signatures are missing from it). The simulation
// exposes exactly that behaviour through a coverage knob.
package efsd

import (
	"math/rand"
	"strings"
	"sync"

	"sigrec/internal/abi"
)

// DB is a selector-to-signature database. It is safe for concurrent reads
// after Build.
type DB struct {
	mu      sync.RWMutex
	entries map[abi.Selector]string
	// gen counts the Add/AddRecovered calls that created or changed an
	// entry; see Generation.
	gen uint64
}

// New returns an empty database.
func New() *DB {
	return &DB{entries: make(map[abi.Selector]string)}
}

// Add registers a signature under its selector.
func (db *DB) Add(sig abi.Signature) {
	sel, canonical := sig.Selector(), sig.Canonical()
	db.mu.Lock()
	defer db.mu.Unlock()
	if old, ok := db.entries[sel]; !ok || old != canonical {
		db.entries[sel] = canonical
		db.gen++
	}
}

// AddCanonical registers a pre-rendered canonical signature string.
func (db *DB) AddCanonical(canonical string) error {
	sig, err := abi.ParseSignature(canonical)
	if err != nil {
		return err
	}
	db.Add(sig)
	return nil
}

// RecoveredName is the placeholder function name for signatures recovered
// from bytecode: recovery yields the selector and the parameter types but
// names are not present in bytecode, so the canonical string cannot be
// reproduced (or hash-verified) — the selector observed in the dispatcher
// is the identity.
const RecoveredName = "recovered"

// AddRecovered registers a recovered signature under its dispatcher
// selector: typeList is the parenthesized parameter list (the
// RecoveredFunction.TypeList format, e.g. "(uint256,bytes)"). Unlike Add,
// the selector is taken as given rather than derived by hashing, because a
// placeholder-named signature never hashes to the real selector.
//
// Registering the type list a selector already has is a no-op that
// allocates nothing: a scan does that for every deployment of a template
// it has already published.
func (db *DB) AddRecovered(sel abi.Selector, typeList string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if old, ok := db.entries[sel]; ok && strings.HasPrefix(old, RecoveredName) && old[len(RecoveredName):] == typeList {
		return
	}
	db.entries[sel] = RecoveredName + typeList
	db.gen++
}

// Generation reports how many Add/AddRecovered calls have created or
// changed an entry. Two equal readings bracket a span in which the
// database did not change, so a copy saved at the first is still
// current at the second.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Lookup returns the canonical signature for a selector.
func (db *DB) Lookup(sel abi.Selector) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.entries[sel]
	return s, ok
}

// Len returns the number of entries.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Build populates a database with a random fraction of the given
// signatures, modeling EFSD's partial coverage.
func Build(sigs []abi.Signature, coverage float64, seed int64) *DB {
	r := rand.New(rand.NewSource(seed))
	db := New()
	for _, s := range sigs {
		if r.Float64() < coverage {
			db.Add(s)
		}
	}
	return db
}

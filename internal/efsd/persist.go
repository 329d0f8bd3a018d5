package efsd

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"sigrec/internal/abi"
)

// fileFormat is the on-disk JSON shape: selector hex -> canonical
// signature, matching the export format of public signature databases.
type fileFormat map[string]string

// Save writes the database as an indented JSON object, selectors sorted
// for stable diffs. The bytes are exactly what encoding/json's Encoder
// with SetIndent("", "  ") writes for the equivalent map[string]string:
// two-space indent, HTML escaping, a trailing newline, and "{}\n" for an
// empty database. The entries are copied under the read lock and encoded
// outside it, without reflection, into one buffer written by one Write.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	// order packs selector<<32 | index into sigs: sorting the integers
	// sorts the entries by selector, the order of their "0x%08x" keys.
	order := make([]uint64, 0, len(db.entries))
	sigs := make([]string, 0, len(db.entries))
	size := len("{\n}\n")
	for sel, sig := range db.entries {
		order = append(order, uint64(binary.BigEndian.Uint32(sel[:]))<<32|uint64(len(sigs)))
		sigs = append(sigs, sig)
		size += len(`  "0x12345678": "",`+"\n") + len(sig)
	}
	db.mu.RUnlock()

	if len(order) == 0 {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	slices.Sort(order)
	buf := make([]byte, 0, size)
	buf = append(buf, "{\n"...)
	var sel [4]byte
	for i, k := range order {
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		binary.BigEndian.PutUint32(sel[:], uint32(k>>32))
		buf = append(buf, `  "0x`...)
		buf = hex.AppendEncode(buf, sel[:])
		buf = append(buf, `": `...)
		buf = appendJSONString(buf, sigs[uint32(k)])
	}
	buf = append(buf, "\n}\n"...)
	_, err := w.Write(buf)
	return err
}

// plainJSON marks the bytes encoding/json copies into a string literal
// verbatim: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
var plainJSON = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendJSONString appends s as the JSON string literal encoding/json
// writes for it: verbatim between quotes when every byte is plainJSON,
// through json.Marshal otherwise.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			q, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// Load reads a JSON database, validating every signature. Entries whose
// canonical signature does not hash to its claimed selector are rejected
// (a poisoned-database guard).
func Load(r io.Reader) (*DB, error) {
	var raw fileFormat
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("efsd: decode: %w", err)
	}
	db := New()
	for selHex, canonical := range raw {
		if err := db.AddCanonical(canonical); err != nil {
			return nil, fmt.Errorf("efsd: entry %s: %w", selHex, err)
		}
	}
	// Verify the claimed selectors.
	for selHex, canonical := range raw {
		sel, err := parseHexSelector(selHex)
		if err != nil {
			return nil, err
		}
		got, ok := db.Lookup(abi.Selector(sel))
		if !ok || got != canonical {
			return nil, fmt.Errorf("efsd: entry %s: selector does not match %q", selHex, canonical)
		}
	}
	return db, nil
}

// LoadTrusted reads a JSON database, keying every entry by its claimed
// selector without the hash verification Load performs. This is the load
// path for databases containing recovered signatures (AddRecovered):
// their placeholder names make hash verification impossible by
// construction. Signatures must still parse; only the selector binding is
// taken on trust, so use this for databases this process (or its own
// store) wrote, not for crowd-sourced imports.
func LoadTrusted(r io.Reader) (*DB, error) {
	var raw fileFormat
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("efsd: decode: %w", err)
	}
	db := New()
	for selHex, canonical := range raw {
		sel, err := parseHexSelector(selHex)
		if err != nil {
			return nil, err
		}
		if _, err := abi.ParseSignature(canonical); err != nil {
			return nil, fmt.Errorf("efsd: entry %s: %w", selHex, err)
		}
		db.mu.Lock()
		db.entries[abi.Selector(sel)] = canonical
		db.mu.Unlock()
	}
	return db, nil
}

func parseHexSelector(s string) ([4]byte, error) {
	var sel [4]byte
	if len(s) != 10 || s[:2] != "0x" {
		return sel, fmt.Errorf("efsd: bad selector %q", s)
	}
	for i := 0; i < 4; i++ {
		hi, err1 := hexNibble(s[2+2*i])
		lo, err2 := hexNibble(s[3+2*i])
		if err1 != nil || err2 != nil {
			return sel, fmt.Errorf("efsd: bad selector %q", s)
		}
		sel[i] = hi<<4 | lo
	}
	return sel, nil
}

func hexNibble(c byte) (byte, error) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', nil
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, nil
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, nil
	default:
		return 0, fmt.Errorf("efsd: bad hex digit %q", c)
	}
}

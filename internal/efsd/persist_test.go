package efsd

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"testing"

	"sigrec/internal/abi"
)

// wantSave is the reference encoding Save must reproduce byte for byte:
// encoding/json's indented rendering of the selector-hex map.
func wantSave(t testing.TB, entries map[abi.Selector]string) []byte {
	t.Helper()
	m := make(map[string]string, len(entries))
	for sel, sig := range entries {
		m[sel.Hex()] = sig
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func checkSave(t *testing.T, entries map[abi.Selector]string) {
	t.Helper()
	db := New()
	for sel, sig := range entries {
		db.entries[sel] = sig
	}
	var got bytes.Buffer
	if err := db.Save(&got); err != nil {
		t.Fatal(err)
	}
	if want := wantSave(t, entries); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Save output differs from encoding/json\n got: %q\nwant: %q", got.Bytes(), want)
	}
}

func TestSaveMatchesEncodingJSON(t *testing.T) {
	sel := func(v uint32) abi.Selector {
		return abi.Selector{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
	random := map[abi.Selector]string{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		random[sel(r.Uint32())] = RecoveredName + "(uint256,address[],bytes)"
	}
	for _, tc := range []struct {
		name    string
		entries map[abi.Selector]string
	}{
		{"empty", map[abi.Selector]string{}},
		{"one", map[abi.Selector]string{sel(0xa9059cbb): "transfer(address,uint256)"}},
		{"extreme selectors", map[abi.Selector]string{
			sel(0): "a()", sel(0xffffffff): "b()", sel(0x80000000): "c()", sel(0x7fffffff): "d()",
		}},
		{"quote and backslash", map[abi.Selector]string{sel(1): `f("x\y")`, sel(2): `\`, sel(3): `"`}},
		{"html", map[abi.Selector]string{sel(1): "a<b>c&d", sel(2): "</script>"}},
		{"control bytes", map[abi.Selector]string{
			sel(1): "a\nb\tc\rd", sel(2): "\x00\x01\x1f", sel(3): "\b\f", sel(4): "\x7f",
		}},
		{"non-ASCII", map[abi.Selector]string{
			sel(1): "héllo", sel(2): "日本", sel(3): "  ", sel(4): "bad\xffutf8", sel(5): "\xc3",
		}},
		{"empty value", map[abi.Selector]string{sel(9): ""}},
		{"random recovered", random},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSave(t, tc.entries) })
	}
}

// FuzzSave builds a database from arbitrary bytes — each NUL-separated
// chunk is one entry, its first four bytes the selector and the rest the
// value — and requires Save to equal encoding/json's rendering.
func FuzzSave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\xa9\x05\x9c\xbbtransfer(address,uint256)"))
	f.Add([]byte("\x00\x00\x00\x01a<b>&\"\\\x00\xff\xff\xff\xffé \x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := map[abi.Selector]string{}
		for _, chunk := range bytes.Split(data, []byte{0}) {
			var sel abi.Selector
			n := copy(sel[:], chunk)
			entries[sel] = string(chunk[n:])
		}
		checkSave(t, entries)
	})
}

func TestGenerationCountsChanges(t *testing.T) {
	db := New()
	sel := abi.Selector{1, 2, 3, 4}
	db.AddRecovered(sel, "(uint256)")
	if g := db.Generation(); g != 1 {
		t.Fatalf("generation after first add = %d, want 1", g)
	}
	db.AddRecovered(sel, "(uint256)")
	if g := db.Generation(); g != 1 {
		t.Fatalf("re-adding an identical type list moved the generation to %d", g)
	}
	if n := testing.AllocsPerRun(100, func() { db.AddRecovered(sel, "(uint256)") }); n != 0 {
		t.Fatalf("a no-op AddRecovered allocates %v times", n)
	}
	db.AddRecovered(sel, "(uint8)")
	if g := db.Generation(); g != 2 {
		t.Fatalf("changing the type list left the generation at %d, want 2", g)
	}
	sig, _ := abi.ParseSignature("transfer(address,uint256)")
	db.Add(sig)
	db.Add(sig)
	if g := db.Generation(); g != 3 {
		t.Fatalf("generation after Add twice = %d, want 3", g)
	}
	if err := db.AddCanonical("transfer(address,uint256)"); err != nil || db.Generation() != 3 {
		t.Fatalf("re-adding an identical canonical signature: gen %d err %v", db.Generation(), err)
	}
}

// BenchmarkEFSDSave encodes a database the size of the scan workload's
// (2,700 recovered signatures, ~130 KiB of JSON) — the cost every scan
// checkpoint that publishes new signatures pays before its fsync.
func BenchmarkEFSDSave(b *testing.B) {
	types := []string{"uint256", "address", "bool", "bytes32", "bytes", "string", "uint8[]", "address[]", "uint256[2]", "int128"}
	r := rand.New(rand.NewSource(1))
	db := New()
	for db.Len() < 2700 {
		params := make([]string, 1+r.Intn(4))
		for i := range params {
			params[i] = types[r.Intn(len(types))]
		}
		var sel abi.Selector
		r.Read(sel[:])
		db.AddRecovered(sel, "("+strings.Join(params, ",")+")")
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/1024, "KiB")
}

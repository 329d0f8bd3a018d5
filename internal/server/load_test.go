package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sigrec/internal/corpus"
)

// TestBatchLoadSmoke replays a 200-contract corpus through the batch
// endpoint with the real pipeline — the load smoke test `make race` runs
// under the race detector. Every line must come back exactly once, and
// the clue-rich entries must recover their function.
func TestBatchLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test skipped in -short mode")
	}
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: 160, Vyper: 40, MaxParams: 4})
	if err != nil {
		t.Fatal(err)
	}
	entries := c.Entries
	if len(entries) != 200 {
		t.Fatalf("corpus has %d entries, want 200", len(entries))
	}

	_, ts := newTestServer(t, Config{QueueDepth: 256})
	var body bytes.Buffer
	for _, e := range entries {
		fmt.Fprintf(&body, "0x%x\n", e.Code)
	}
	resp, err := http.Post(ts.URL+"/v1/recover/batch", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	seen := make(map[int]bool, len(entries))
	recovered := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var br BatchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if br.Index < 0 || br.Index >= len(entries) || seen[br.Index] {
			t.Fatalf("bad or duplicate index %d", br.Index)
		}
		seen[br.Index] = true
		if br.Error != "" {
			t.Errorf("index %d: server-side error %q", br.Index, br.Error)
			continue
		}
		want := entries[br.Index].Sig.Selector().Hex()
		for _, f := range br.Functions {
			if f.Selector == want {
				recovered++
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(entries) {
		t.Fatalf("got %d result lines, want %d", len(seen), len(entries))
	}
	// Recovery accuracy belongs to the corpus tests; here we only require
	// that the serving layer did not lose or mangle work in flight.
	if recovered < len(entries)*8/10 {
		t.Fatalf("only %d/%d functions recovered end-to-end", recovered, len(entries))
	}
}

// BenchmarkServerThroughput measures served requests per second through
// the full HTTP stack: a mixed set of contracts with the shared cache
// enabled, so steady state exercises the serving layer (routing,
// admission, coalescing, cache hit) rather than TASE. ns/op is wall time
// per request across the parallel clients, so requests per second are
// 1e9 / ns_per_op.
func BenchmarkServerThroughput(b *testing.B) {
	sigs := []string{
		"transfer(address,uint256)",
		"approve(address,uint256)",
		"balanceOf(address)",
		"mint(address,uint256)",
		"burn(uint256)",
		"setOwner(address)",
		"deposit(uint256,bytes32)",
		"withdraw(uint256)",
	}
	bodies := make([][]byte, len(sigs))
	for i, sigStr := range sigs {
		code, _ := compileSig(b, sigStr)
		bodies[i] = []byte(fmt.Sprintf("0x%x", code))
	}
	s := New(Config{QueueDepth: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drain every response and allow one idle connection per client
	// goroutine: an undrained body forces the transport to discard the
	// connection, so without this the benchmark measures TCP handshakes
	// (~30% of CPU) instead of the serving layer.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := bodies[i%len(bodies)]
			i++
			resp, err := client.Post(ts.URL+"/v1/recover", "text/plain", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

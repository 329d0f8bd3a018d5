package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sigrec/internal/benchgate"
	"sigrec/internal/corpus"
	"sigrec/internal/obs"
	"sigrec/internal/server"
)

// benchCode returns a unique full-recovery input per iteration: the base
// contract with an unreachable suffix appended, so every request misses
// the cache and runs the whole pipeline while the recovery cost itself
// stays constant.
func benchCode(base []byte, i int) string {
	code := make([]byte, len(base), len(base)+4)
	copy(code, base)
	code = append(code, 0xfe, byte(i>>16), byte(i>>8), byte(i))
	return fmt.Sprintf("0x%x", code)
}

func benchEntry(tb testing.TB) []byte {
	tb.Helper()
	// The largest 10-function synthesized contract in the corpus: the
	// recovery is a realistic multi-millisecond unit of work, so the
	// measured delta between direct and proxied isolates the router hop
	// as a fraction of real serving latency rather than of HTTP noise.
	entries, err := corpus.GenerateSynthesized(17)
	if err != nil {
		tb.Fatal(err)
	}
	code := entries[0].Code
	for _, e := range entries {
		if len(e.Code) > len(code) {
			code = e.Code
		}
	}
	return code
}

func benchShard(tb testing.TB) *httptest.Server {
	tb.Helper()
	srv := server.New(server.Config{Workers: 4, QueueDepth: 256, CacheEntries: 1 << 16})
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return ts
}

// benchRouted starts a shard behind a single-shard sigrec-router with the
// given tracer (nil disables the span machinery; the outbound traceparent
// is still injected — that is unconditional) and returns the router's URL.
func benchRouted(tb testing.TB, tracer *obs.Tracer) string {
	tb.Helper()
	shard := benchShard(tb)
	rt, err := NewRouter(Config{Shards: []ShardAddr{{ID: "s1", URL: shard.URL}}, Tracer: tracer})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	tb.Cleanup(front.Close)
	return front.URL
}

// recoverOp returns one request of the router gates: a full recovery of
// a fresh input posted to url.
func recoverOp(tb testing.TB, url string, base []byte) func() {
	client := &http.Client{}
	i := 0
	return func() {
		resp, err := client.Post(url+"/v1/recover", "text/plain", strings.NewReader(benchCode(base, i)))
		i++
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// routerGateOps is how many requests (about 10ms each) each side of a
// router gate sends per round.
const routerGateOps = 40

// BenchmarkGateRouterOverhead holds full recoveries through sigrec-router
// within 10% of the same recoveries sent straight to the shard: the
// router hop must stay noise next to a real recovery.
func BenchmarkGateRouterOverhead(b *testing.B) {
	base := benchEntry(b)
	benchgate.Pair(b, routerGateOps, 0.10,
		recoverOp(b, benchShard(b).URL, base), recoverOp(b, benchRouted(b, nil), base))
}

// TestAllocsRouterTracing and BenchmarkGateRouterTracing isolate the
// router's span machinery (route root, decide span, attempt span,
// recorder retention) as a fraction of real serving latency, the way the
// E3 pairs gate the shard's: the span tree is a fixed handful of
// allocations next to a recovery's thousands. The traced side records
// into a recorder sized to retain the whole run.
func TestAllocsRouterTracing(t *testing.T) {
	base := benchEntry(t)
	benchgate.Allocs(t, 10, 0.10,
		recoverOp(t, benchRouted(t, nil), base),
		recoverOp(t, benchRouted(t, obs.New(obs.Config{Slowest: 4096})), base))
}

func BenchmarkGateRouterTracing(b *testing.B) {
	base := benchEntry(b)
	benchgate.Pair(b, routerGateOps, 0.25,
		recoverOp(b, benchRouted(b, nil), base),
		recoverOp(b, benchRouted(b, obs.New(obs.Config{Slowest: 4096})), base))
}

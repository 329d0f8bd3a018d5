package scan

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"sigrec/internal/benchgate"
	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/store"
)

// One benchmark op is a full backfill of this chain: 80 deployments over
// 6 implementation templates, half of them proxies.
const (
	benchSeed      = 7
	benchBlocks    = 20
	benchPerBlock  = 4
	benchTemplates = 6
)

func benchSource(tb testing.TB) *chain.Synthetic {
	tb.Helper()
	tmpls, err := chain.SyntheticTemplates(benchSeed, benchTemplates)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            benchSeed,
		Blocks:          benchBlocks,
		DeploysPerBlock: benchPerBlock,
		ProxyRate:       0.5,
		FacadeShare:     0.3,
		Templates:       chain.TemplateCodes(tmpls),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

func benchRun(tb testing.TB, src *chain.Synthetic, st *store.Store) {
	tb.Helper()
	s, err := New(Config{
		Source:   src,
		Cache:    core.NewTieredCache(256, st).Cache,
		EndBlock: benchBlocks - 1,
		Workers:  3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkScanThroughputCold measures the backfill with an empty result
// store: every unique template is recovered from scratch, the rest of
// the chain dedupes against the freshly computed results.
func BenchmarkScanThroughputCold(b *testing.B) {
	src := benchSource(b)
	b.ReportMetric(benchBlocks*benchPerBlock, "deploys/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(filepath.Join(b.TempDir(), "store"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchRun(b, src, st)
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// warmRescan returns one operation of the restart path: the store
// already holds every template's result, so the whole chain must be
// served by dedupe (memory tier plus warm disk hits) with zero
// recomputation. Each operation gets a fresh Scanner and a fresh memory
// tier: only the disk store carries warmth across operations, like a
// process restart.
func warmRescan(tb testing.TB) func() {
	src := benchSource(tb)
	st, err := store.Open(filepath.Join(tb.TempDir(), "store"), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	benchRun(tb, src, st) // populate
	return func() { benchRun(tb, src, st) }
}

func BenchmarkScanThroughputWarm(b *testing.B) {
	rescan := warmRescan(b)
	b.ReportMetric(benchBlocks*benchPerBlock, "deploys/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rescan()
	}
}

// BenchmarkGateScanThroughputWarm holds a warm rescan of the 80
// deployments under 25ms, a floor of over 3,000 deployments/s for the
// scanner's restart path. It runs near 2ms, so the ceiling catches a
// structural regression (a recompute sneaking into the warm path), not
// runner scatter.
func BenchmarkGateScanThroughputWarm(b *testing.B) {
	benchgate.Ceiling(b, 20, 25*time.Millisecond, warmRescan(b))
}

package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"
)

// shard is the router's live view of one sigrecd backend: identity,
// breaker, health, inflight load, and the p95-derived hedge delay scraped
// from the shard's recovery latency histogram.
type shard struct {
	id  string
	url string // base URL, no trailing slash

	breaker  *Breaker
	healthy  atomic.Bool
	inflight atomic.Int64
	// p95us is the p95 of the shard's sigrec_recover_duration_microseconds
	// buckets at its last /metrics scrape; 0 until the first scrape that
	// found observations.
	p95us atomic.Int64
}

// hedgeDelay derives when to hedge a request sent to this shard: the
// shard's own p95, clamped to [lo, hi]. A request still unanswered past
// the shard's p95 is in its latency tail — the textbook moment to hedge.
// Before the first scrape (p95 unknown) the delay is hi, so a cold router
// hedges conservatively rather than doubling every request.
func (s *shard) hedgeDelay(lo, hi time.Duration) time.Duration {
	p95 := s.p95us.Load()
	if p95 <= 0 {
		return hi
	}
	return min(max(time.Duration(p95)*time.Microsecond, lo), hi)
}

// poll refreshes health and the hedge-delay quantile once. Health is the
// shard's /healthz (200 = routable; 503 covers draining); the p95 is read
// off the recovery histogram buckets of the shard's /metrics exposition.
func (s *shard) poll(ctx context.Context, client *http.Client, m *routerMetrics) {
	hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	healthy := false
	if req, err := http.NewRequestWithContext(hctx, http.MethodGet, s.url+"/healthz", nil); err == nil {
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
		}
	}
	wasHealthy := s.healthy.Swap(healthy)
	if healthy && !wasHealthy {
		// Rising edge: the shard answered a health probe after being down.
		// That is exactly the evidence a half-open probe would gather, so
		// close the breaker now instead of benching the recovered shard
		// for the rest of its cooldown — a restarted shard rejoins within
		// one poll interval. A shard that is up but shedding shows no
		// edge, so its breaker still runs the full open/half-open cycle.
		s.breaker.Success()
	}
	if !healthy {
		m.shardHealthy.With(s.id).Set(0)
		return
	}
	m.shardHealthy.With(s.id).Set(1)
	if req, err := http.NewRequestWithContext(hctx, http.MethodGet, s.url+"/metrics", nil); err == nil {
		if resp, err := client.Do(req); err == nil {
			series, perr := ParseExposition(resp.Body)
			resp.Body.Close()
			if perr == nil {
				if v := histogramFromSeries(series, "sigrec_recover_duration_microseconds").Quantile(0.95); v > 0 {
					s.p95us.Store(int64(v))
					m.shardHedgeUS.With(s.id).Set(int64(v))
				}
			}
		}
	}
}

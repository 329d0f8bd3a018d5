package scan

import (
	"sync/atomic"
	"time"

	"sigrec/internal/core"
)

// The scanner reports into the shared pipeline registry so one /metrics
// or -stats exposition carries recovery and scan counters side by side.
var tel = core.Metrics()

// lastCheckpointUS is the wall-clock (UnixMicro) of the most recent
// checkpoint save, refreshed into the age gauge at each snapshot; zero
// means no checkpoint yet this process.
var lastCheckpointUS atomic.Int64

func init() {
	tel.SetHelp("sigrec_scan_blocks_ingested_total", "Chain blocks pulled from the source")
	tel.SetHelp("sigrec_scan_deployments_total", "Contract deployments seen, by resolved kind")
	tel.SetHelp("sigrec_scan_proxies_resolved_total", "Proxy deployments resolved to implementation bytecode, by method")
	tel.SetHelp("sigrec_scan_proxies_unresolved_total", "Proxy-shaped deployments whose implementation could not be fetched")
	tel.SetHelp("sigrec_scan_dedupe_hits_total", "Deployments whose bytecode was already recovered (store/cache/in-flight)")
	tel.SetHelp("sigrec_scan_recoveries_total", "Recoveries completed by the scanner")
	tel.SetHelp("sigrec_scan_recover_errors_total", "Scanner recoveries that returned an error")
	tel.SetHelp("sigrec_scan_signatures_published_total", "Function signatures published into the EFSD")
	tel.SetHelp("sigrec_scan_checkpoints_total", "Durable checkpoint saves")
	tel.SetHelp("sigrec_scan_head_lag_blocks", "Blocks between the source head and the ingest position")
	tel.SetHelp("sigrec_scan_cursor_block", "Block number of the last durable checkpoint cursor")
	tel.SetHelp("sigrec_scan_checkpoint_age_seconds", "Seconds since the last durable checkpoint save")
	tel.SetHelp("sigrec_scan_work_queue_depth", "Deployments waiting in the recovery work queue")
	tel.SetHelp("sigrec_scan_stage_inflight", "Deployments currently inside each pipeline stage, by stage")
	tel.SetHelp("sigrec_scan_queue_wait_microseconds", "Time deployments spend queued between ingest and a recovery worker")
	tel.OnSnapshot(func() {
		if ts := lastCheckpointUS.Load(); ts > 0 {
			age := (time.Now().UnixMicro() - ts) / 1e6
			mCheckpointAge.Set(age)
		}
	})
}

var (
	mBlocksIngested  = tel.Counter("sigrec_scan_blocks_ingested_total")
	mDeployments     = tel.CounterVec("sigrec_scan_deployments_total", "kind")
	mProxiesResolved = tel.CounterVec("sigrec_scan_proxies_resolved_total", "method")
	mProxyUnresolved = tel.Counter("sigrec_scan_proxies_unresolved_total")
	mDedupeHits      = tel.Counter("sigrec_scan_dedupe_hits_total")
	mScanRecoveries  = tel.Counter("sigrec_scan_recoveries_total")
	mScanErrors      = tel.Counter("sigrec_scan_recover_errors_total")
	mPublished       = tel.Counter("sigrec_scan_signatures_published_total")
	mCheckpoints     = tel.Counter("sigrec_scan_checkpoints_total")
	mHeadLag         = tel.Gauge("sigrec_scan_head_lag_blocks")
	mCursorBlock     = tel.Gauge("sigrec_scan_cursor_block")
	mCheckpointAge   = tel.Gauge("sigrec_scan_checkpoint_age_seconds")
	mWorkQueueDepth  = tel.Gauge("sigrec_scan_work_queue_depth")
	mStageInflight   = tel.GaugeVec("sigrec_scan_stage_inflight", "stage")
	mQueueWait       = tel.Histogram("sigrec_scan_queue_wait_microseconds")

	// Pre-resolved vec members for the hot per-deployment path.
	mDeployDirect     = mDeployments.With("direct")
	mDeployMinimal    = mDeployments.With("eip1167")
	mDeployProbed     = mDeployments.With("probed")
	mDeployUnresolved = mDeployments.With("unresolved")
	mResolvedPattern  = mProxiesResolved.With("pattern")
	mResolvedProbe    = mProxiesResolved.With("probe")

	// Pre-resolved per-stage in-flight gauges: workers Add(±1) around
	// each stage, so /metrics shows where the pipeline's concurrency is
	// spent at any instant.
	mInflightResolve = mStageInflight.With("resolve")
	mInflightRecover = mStageInflight.With("recover")
	mInflightPublish = mStageInflight.With("publish")
)

// markCheckpoint records a completed save into the gauges.
func markCheckpoint(c Cursor) {
	mCheckpoints.Inc()
	mCursorBlock.Set(int64(c.Block))
	lastCheckpointUS.Store(time.Now().UnixMicro())
	mCheckpointAge.Set(0)
}

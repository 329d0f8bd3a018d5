package cluster

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"

	"sigrec/internal/telemetry"
)

// ParseExposition parses a Prometheus text-format exposition into a flat
// map keyed by the full series name including its label block, e.g.
//
//	sigrec_recover_duration_microseconds_bucket{le="1000"} -> 1234
//	sigrec_cache_hits_total                                -> 87
//
// Comment lines and OpenMetrics exemplar suffixes are dropped. The router
// rebuilds each shard's recovery latency histogram from it
// (histogramFromSeries) for the p95 hedge delay; the e2e harness uses it
// to reconcile counter deltas across the cluster.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Exemplar suffix: `name{...} value # {request_id="..."} ev`.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The series name may contain spaces only inside label values;
		// split on the last space so quoted values survive.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue // timestamps or malformed tails: skip, not fatal
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// histogramFromSeries rebuilds the named histogram from the
// `<name>_bucket{le="..."}` series of a parsed exposition, whatever its
// bucket layout. The result is empty (Count 0) when the exposition has no
// such family or no +Inf bucket.
func histogramFromSeries(series map[string]float64, name string) telemetry.HistogramSnapshot {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum uint64 }
	var buckets []bucket
	var h telemetry.HistogramSnapshot
	for k, v := range series {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, ok = strings.CutSuffix(le, `"}`)
		if !ok {
			continue
		}
		if le == "+Inf" {
			h.Count = uint64(v)
			continue
		}
		if b, err := strconv.ParseUint(le, 10, 64); err == nil {
			buckets = append(buckets, bucket{b, uint64(v)})
		}
	}
	if h.Count == 0 {
		return telemetry.HistogramSnapshot{}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		h.Bounds = append(h.Bounds, b.le)
		h.Cumulative = append(h.Cumulative, b.cum)
	}
	h.Cumulative = append(h.Cumulative, h.Count)
	return h
}

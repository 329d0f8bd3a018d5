package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigrec/internal/cluster"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

func TestNewLogger(t *testing.T) {
	cases := []struct {
		format, level string
		want          slog.Level // lowest enabled level
		json          bool
		err           string
	}{
		{"text", "info", slog.LevelInfo, false, ""},
		{"json", "debug", slog.LevelDebug, true, ""},
		{"TEXT", "WARN", slog.LevelWarn, false, ""},
		{"JSON", "INFO", slog.LevelInfo, true, ""},
		{"Json", "Error", slog.LevelError, true, ""},
		{"text", "verbose", 0, false, `unknown -log-level "verbose"`},
		{"text", "", 0, false, `unknown -log-level ""`},
		{"yaml", "info", 0, false, `unknown -log-format "yaml"`},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		logger, err := NewLogger(&buf, c.format, c.level)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("NewLogger(%q, %q) error = %v, want %q", c.format, c.level, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewLogger(%q, %q): %v", c.format, c.level, err)
			continue
		}
		ctx := context.Background()
		if !logger.Enabled(ctx, c.want) || logger.Enabled(ctx, c.want-1) {
			t.Errorf("NewLogger(%q, %q) does not log from %v up", c.format, c.level, c.want)
		}
		logger.Error("probe")
		if got := strings.HasPrefix(buf.String(), "{"); got != c.json {
			t.Errorf("NewLogger(%q, %q) wrote %q, json = %v", c.format, c.level, buf.String(), c.json)
		}
	}
}

func TestParseAddrs(t *testing.T) {
	ok := []struct {
		name, spec string
		required   bool
		want       []cluster.ShardAddr
	}{
		{"-peers", "s1=http://a:1/, s2=http://b:2", false,
			[]cluster.ShardAddr{{ID: "s1", URL: "http://a:1"}, {ID: "s2", URL: "http://b:2"}}},
		{"-peers", "", false, nil},
		{"-peers", " , ", false, nil},
		{"-shards", "s2=http://b:2,s1=http://a:1", true,
			[]cluster.ShardAddr{{ID: "s2", URL: "http://b:2"}, {ID: "s1", URL: "http://a:1"}}},
	}
	for _, c := range ok {
		got, err := ParseAddrs(c.name, c.spec, c.required)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseAddrs(%q, %q) = %v, %v; want %v", c.name, c.spec, got, err, c.want)
		}
	}

	bad := []struct {
		name, spec string
		required   bool
		err        string
	}{
		{"-peers", "s1", false, `-peers entry "s1" is not id=url`},
		{"-peers", "=http://a", false, "is not id=url"},
		{"-peers", "s1=", false, "is not id=url"},
		{"-peers", "s1=http://a,s1=http://b", false, `-peers lists shard "s1" twice`},
		{"-shards", "", true, "-shards is required (id=url,...)"},
		{"-shards", " ,", true, "-shards is required"},
		{"-shards", "s1=http://a,s1=http://a", true, `-shards lists shard "s1" twice`},
		{"-shards", "s1=http://a,s2", true, `-shards entry "s2" is not id=url`},
	}
	for _, c := range bad {
		if _, err := ParseAddrs(c.name, c.spec, c.required); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("ParseAddrs(%q, %q) error = %v, want %q", c.name, c.spec, err, c.err)
		}
	}
}

// TestCloseDumpsFlightRecorder runs the whole surface — event log, OTLP
// exporter, tracer, SLO engine and debug listener — and checks that Close
// lands the tracer's retained truncated record in the event log as
// exactly one flight_recorder aux record, after the exporter has flushed
// the record's spans to the collector.
func TestCloseDumpsFlightRecorder(t *testing.T) {
	var traces atomic.Int64
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/traces" {
			traces.Add(1)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, "{}")
	}))
	defer col.Close()

	path := filepath.Join(t.TempDir(), "events.ndjson")
	reg := telemetry.NewRegistry()
	p, err := Start(&Flags{
		Slowest:       4,
		OTLPEndpoint:  col.URL,
		OTLPInterval:  time.Hour,
		ServiceName:   "daemon-test",
		DebugAddr:     "127.0.0.1:0",
		SLOLatency:    time.Second,
		EventLogMaxMB: 1,
	}, Config{
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry:           reg,
		EventLog:           eventlog.Config{Path: path},
		AvailabilityTotal:  "requests_total",
		AvailabilityErrors: "errors_total",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tracer == nil || p.Events == nil || p.SLO == nil {
		t.Fatalf("Start left a part off: tracer %v, events %v, slo %v", p.Tracer, p.Events, p.SLO)
	}
	_, rec := p.Tracer.StartRecovery(context.Background(), "req-1")
	rec.Span("explore").End()
	rec.Finish(true, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p.Close(ctx)

	if traces.Load() == 0 {
		t.Error("Close did not flush the recorded spans to the collector")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var dumps []obs.Snapshot
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Kind string          `json:"kind"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("undecodable event line %q: %v", sc.Text(), err)
		}
		if line.Kind != "flight_recorder" {
			continue
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(line.Data, &snap); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, snap)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("event log holds %d flight_recorder records, want 1", len(dumps))
	}
	if d := dumps[0]; d.TruncatedSeen != 1 || len(d.Truncated) != 1 || d.Truncated[0].RequestID != "req-1" {
		t.Errorf("dump = %+v, want the one truncated record of req-1", d)
	}
}

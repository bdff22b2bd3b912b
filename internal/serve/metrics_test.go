package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestMetricsRendering(t *testing.T) {
	m := NewMetrics()
	c := m.NewCounter("test_ops_total", "Operations.")
	c.Add(3)
	g := m.NewGauge("test_level", "Level.")
	g.Set(2.5)
	m.NewGaugeFunc("test_func", "Computed.", func() float64 { return 7 })
	cv := m.NewCounterVec("test_reqs_total", "Requests.", "handler", "code")
	cv.With("ingest", "200").Add(2)
	cv.With("ingest", "400").Inc()

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_ops_total Operations.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# TYPE test_level gauge",
		"test_level 2.5",
		"test_func 7",
		`test_reqs_total{handler="ingest",code="200"} 2`,
		`test_reqs_total{handler="ingest",code="400"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A value exactly on a bound lands in that bound's bucket
	// (cumulative le semantics).
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(1)
	if got := h2.counts[0].Load(); got != 1 {
		t.Fatalf("boundary observation fell in bucket %v", h2.counts)
	}
}

// TestMetricsSnapshotMatchesExposition checks that Snapshot and the text
// exposition are two views of the same samples: every series in the
// scrape appears in the snapshot with the same value, and vice versa.
func TestMetricsSnapshotMatchesExposition(t *testing.T) {
	m := NewMetrics()
	m.NewCounter("snap_ops_total", "Ops.").Add(41)
	m.NewGauge("snap_level", "Level.").Set(2.25)
	m.NewGaugeFunc("snap_func", "Computed.", func() float64 { return 1e6 })
	cv := m.NewCounterVec("snap_reqs_total", "Reqs.", "handler")
	cv.With("ingest").Add(7)
	h := m.NewHistogram("snap_lat_seconds", "Lat.", []float64{0.5, 5})
	h.Observe(0.1)
	h.Observe(1)

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	exposed := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable exposition line %q: %v", line, err)
		}
		exposed[line[:sp]] = v
	}
	snap := m.Snapshot()
	if len(snap) != len(exposed) {
		t.Fatalf("snapshot has %d series, exposition %d", len(snap), len(exposed))
	}
	for name, v := range exposed {
		if sv, ok := snap[name]; !ok || sv != v {
			t.Errorf("series %s: snapshot %v, exposition %v (present %v)", name, sv, v, ok)
		}
	}
	if snap["snap_ops_total"] != 41 || snap[`snap_reqs_total{handler="ingest"}`] != 7 {
		t.Errorf("unexpected counter values in %v", snap)
	}
	if snap[`snap_lat_seconds_bucket{le="0.5"}`] != 1 || snap["snap_lat_seconds_count"] != 2 {
		t.Errorf("unexpected histogram samples in %v", snap)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DurationBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-6 {
		t.Fatalf("sum = %v, want 8.0", h.Sum())
	}
}

// TestWALTailAndSnapshotMetrics follows the journal's recovery debt
// through the daemon's own signals: the tail gauge and the snapshot
// totals in /metrics, and the snapshot LSN and tail in both health
// endpoints, before and after a snapshot and after more ingest.
func TestWALTailAndSnapshotMetrics(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.WALDir = t.TempDir()
		c.SnapshotEvery = -1 // snapshots only when the test asks
	})
	ingest := func(offset int) float64 {
		t.Helper()
		batch := fleetDay(offset)
		if resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", batch); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch status %d: %s", resp.StatusCode, body)
		}
		return float64(len(batch))
	}
	check := func(what string, lastLSN, snapLSN, snapshots float64) {
		t.Helper()
		m := s.CounterSnapshot()
		if m["ssdserved_wal_last_lsn"] != lastLSN || m["ssdserved_wal_tail_records"] != lastLSN-snapLSN ||
			m["ssdserved_wal_snapshots_total"] != snapshots {
			t.Fatalf("%s: last lsn %v, tail %v, snapshots %v; want %v, %v, %v", what, m["ssdserved_wal_last_lsn"],
				m["ssdserved_wal_tail_records"], m["ssdserved_wal_snapshots_total"], lastLSN, lastLSN-snapLSN, snapshots)
		}
		if bytes, secs := m["ssdserved_wal_snapshot_bytes_total"], m["ssdserved_wal_snapshot_seconds_total"]; (bytes > 0) != (snapshots > 0) || (secs > 0) != (snapshots > 0) {
			t.Fatalf("%s: %v snapshot bytes and %v snapshot seconds after %v snapshots", what, bytes, secs, snapshots)
		}
		for _, path := range []string{"/v1/health", "/healthz"} {
			var h struct {
				Last *float64 `json:"wal_last_lsn"`
				Snap *float64 `json:"wal_snapshot_lsn"`
				Tail *float64 `json:"wal_tail_records"`
			}
			getJSON(t, ts.URL+path, &h)
			if h.Last == nil || h.Snap == nil || h.Tail == nil || *h.Last != lastLSN || *h.Snap != snapLSN || *h.Tail != lastLSN-snapLSN {
				t.Fatalf("%s: %s reports %+v, want last %v snapshot %v tail %v", what, path, h, lastLSN, snapLSN, lastLSN-snapLSN)
			}
		}
	}
	check("empty", 0, 0, 0)
	first := ingest(1)
	check("one day in", first, 0, 0)
	var snap struct {
		LSN float64 `json:"snapshot_lsn"`
	}
	resp, body := postJSON(t, ts.URL+"/v1/snapshot", nil)
	if err := json.Unmarshal(body, &snap); resp.StatusCode != http.StatusOK || err != nil || snap.LSN != first {
		t.Fatalf("snapshot: status %d, body %s (%v), want snapshot_lsn %v", resp.StatusCode, body, err, first)
	}
	check("after the snapshot", first, first, 1)
	bytesBefore := s.CounterSnapshot()["ssdserved_wal_snapshot_bytes_total"]
	second := ingest(0)
	check("another day in", first+second, first, 1)
	if resp, _ := postJSON(t, ts.URL+"/v1/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("second snapshot: status %d", resp.StatusCode)
	}
	check("after the second snapshot", first+second, first+second, 2)
	if after := s.CounterSnapshot()["ssdserved_wal_snapshot_bytes_total"]; after <= 2*bytesBefore {
		t.Fatalf("snapshot bytes %v -> %v: the second snapshot holds two reports a drive, the first one", bytesBefore, after)
	}

	// Without a WAL there is no tail to report.
	_, plain := newTestServer(t, nil)
	var h map[string]any
	getJSON(t, plain.URL+"/v1/health", &h)
	if _, ok := h["wal_tail_records"]; ok {
		t.Fatalf("a daemon without a WAL reports a WAL tail: %v", h)
	}
}

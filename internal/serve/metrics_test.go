package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

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

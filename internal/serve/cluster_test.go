package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func TestHealthEndpointReportsReadiness(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.NodeName = "nodeA"
		c.WALDir = t.TempDir()
	})
	var health struct {
		Status      string  `json:"status"`
		Node        string  `json:"node"`
		ModelLoaded bool    `json:"model_loaded"`
		Version     int     `json:"model_version"`
		WALLastLSN  *uint64 `json:"wal_last_lsn"`
	}
	resp := getJSON(t, ts.URL+"/v1/health", &health)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status %d", resp.StatusCode)
	}
	if health.Status != "ready" || health.Node != "nodeA" || !health.ModelLoaded {
		t.Fatalf("health = %+v", health)
	}
	if health.WALLastLSN == nil {
		t.Fatal("durable node reports no wal_last_lsn")
	}
}

func TestWALStreamServesAcceptedRecords(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.WALDir = t.TempDir() })

	resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", fleetDay(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &rep); err != nil || rep.Accepted == 0 {
		t.Fatalf("batch reply %s (%v)", body, err)
	}

	get := func(url string) (int, []byte) {
		t.Helper()
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, b
	}

	code, data := get(ts.URL + "/v1/wal/stream?from=1")
	if code != http.StatusOK {
		t.Fatalf("stream status %d: %s", code, data)
	}
	frames := 0
	expect := uint64(1)
	for len(data) > 0 {
		n, lsn, payload := ParseStreamFrame(data)
		if n == 0 {
			t.Fatalf("damaged frame at offset %d of stream", frames)
		}
		if lsn != expect {
			t.Fatalf("frame %d has lsn %d, want %d", frames, lsn, expect)
		}
		if _, _, _, err := DecodeWALRecord(payload); err != nil {
			t.Fatalf("frame %d undecodable: %v", frames, err)
		}
		frames++
		expect++
		data = data[n:]
	}
	if frames != rep.Accepted {
		t.Fatalf("streamed %d frames, accepted %d records", frames, rep.Accepted)
	}

	// Caught up: an empty 200 body.
	code, data = get(ts.URL + "/v1/wal/stream?from=" + jsonItoa(frames+1))
	if code != http.StatusOK || len(data) != 0 {
		t.Fatalf("caught-up stream: status %d, %d bytes", code, len(data))
	}

	// A byte budget truncates at a frame boundary, never mid-frame.
	code, data = get(ts.URL + "/v1/wal/stream?from=1&max_bytes=64")
	if code != http.StatusOK || len(data) == 0 {
		t.Fatalf("budgeted stream: status %d, %d bytes", code, len(data))
	}
	n, lsn, _ := ParseStreamFrame(data)
	if n == 0 || lsn != 1 {
		t.Fatalf("budgeted stream first frame: n=%d lsn=%d", n, lsn)
	}

	if code, _ := get(ts.URL + "/v1/wal/stream?from=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad from: status %d, want 400", code)
	}
}

func TestWALStreamWithoutJournal(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/wal/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409 without a WAL", resp.StatusCode)
	}
}

func TestApplyReplicatedMirrorsState(t *testing.T) {
	primary, pts := newTestServer(t, func(c *Config) { c.WALDir = t.TempDir() })
	replica, _ := newTestServer(t, func(c *Config) { c.WALDir = t.TempDir() })

	if resp, body := postJSON(t, pts.URL+"/v1/ingest/batch", fleetDay(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}

	// Pull the primary's stream and apply every frame to the replica.
	resp, err := http.Get(pts.URL + "/v1/wal/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	applied, skipped := 0, 0
	stream := data
	for len(stream) > 0 {
		n, _, payload := ParseStreamFrame(stream)
		if n == 0 {
			t.Fatal("damaged frame")
		}
		id, model, rec, err := DecodeWALRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := replica.ApplyReplicated(id, model, rec)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			applied++
		} else {
			skipped++
		}
		stream = stream[n:]
	}
	if applied == 0 || skipped != 0 {
		t.Fatalf("first apply pass: applied=%d skipped=%d", applied, skipped)
	}
	if replica.store.Len() != primary.store.Len() {
		t.Fatalf("replica holds %d drives, primary %d", replica.store.Len(), primary.store.Len())
	}

	// Replication ships reports, not scores: the replica's score column
	// starts fully stale, and its first pass re-scores every drive to
	// exactly what the primary answers.
	drives := replica.store.Len()
	if got := staleSlots(replica.store); got != drives {
		t.Fatalf("replica has %d stale score slots of %d after apply", got, drives)
	}
	pred, info, _ := replica.registry.Current()
	want, _ := sweepRanked(primary.scorer, primary.store, pred, info.Version, 0, 0, 0)
	got, stats := sweepRanked(replica.scorer, replica.store, pred, info.Version, 0, 0, 0)
	requireSameRanking(t, "replica's first pass against the primary's", got, want)
	if stats.Hits != 0 || stats.Scored != drives {
		t.Fatalf("replica's first pass: %+v, want %d scored and no hits", stats, drives)
	}

	// Re-applying the same stream is benign: everything skips, the
	// overlap a follower re-pulling from zero after restart produces.
	stream = data
	for len(stream) > 0 {
		n, _, payload := ParseStreamFrame(stream)
		id, model, rec, _ := DecodeWALRecord(payload)
		ok, err := replica.ApplyReplicated(id, model, rec)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("duplicate replicated record applied twice")
		}
		stream = stream[n:]
	}
	// Skipped duplicates changed nothing, so they invalidated nothing.
	if got := staleSlots(replica.store); got != 0 {
		t.Fatalf("re-applying an already applied stream left %d score slots stale", got)
	}
}

// jsonItoa keeps the test free of a strconv import dance.
func jsonItoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

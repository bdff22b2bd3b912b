package cluster

import (
	"context"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestFollowerReplicatesWAL drives real records into a WAL-backed
// primary and proves a Follower pulling its stream over HTTP converges
// the replica to the same drive states.
func TestFollowerReplicatesWAL(t *testing.T) {
	primary, pts := newNode(t, "n1")
	replica, rts := newNode(t, "f1")

	code, body := postJSON(t, pts.URL+"/v1/ingest/batch", fleetRecords(1))
	if code != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", code, body)
	}

	fol := &Follower{
		Upstream:     pts.URL,
		Apply:        replica.ApplyReplicated,
		PollInterval: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()

	want := primary.CounterSnapshot()["ssdserved_ingest_records_total"]
	waitFor(t, 5*time.Second, "replica to catch up", func() bool {
		return float64(fol.Stats().Applied) == want
	})

	// More records accepted while the follower is live must flow too.
	code, body = postJSON(t, pts.URL+"/v1/ingest/batch", fleetRecords(0))
	if code != http.StatusAccepted {
		t.Fatalf("second batch status %d: %s", code, body)
	}
	want = primary.CounterSnapshot()["ssdserved_ingest_records_total"]
	waitFor(t, 5*time.Second, "replica to stream the live tail", func() bool {
		return float64(fol.Stats().Applied) == want
	})

	st := fol.Stats()
	if st.LastErr != nil {
		t.Fatalf("follower unhealthy: %v", st.LastErr)
	}
	if st.Skipped != 0 {
		t.Fatalf("replica skipped %d records on a clean stream", st.Skipped)
	}
	if st.NextLSN != uint64(want)+1 {
		t.Fatalf("cursor at %d, want %d", st.NextLSN, uint64(want)+1)
	}

	cancel()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatalf("follower run: %v", err)
	}

	// Both sides agree on a spot-checked drive's served state.
	var pd, rd struct {
		DriveID uint32  `json:"drive_id"`
		Days    int     `json:"days"`
		Score   float64 `json:"score"`
	}
	id := fixFleet.Drives[0].ID
	idStr := strconv.FormatUint(uint64(id), 10)
	if code := getJSON(t, pts.URL+"/v1/drive/"+idStr, &pd); code != http.StatusOK {
		t.Fatalf("primary drive lookup: %d", code)
	}
	if code := getJSON(t, rts.URL+"/v1/drive/"+idStr, &rd); code != http.StatusOK {
		t.Fatalf("replica drive lookup: %d", code)
	}
	if pd != rd {
		t.Fatalf("replica diverged:\nprimary %+v\nreplica %+v", pd, rd)
	}

	// The stream carries reports, never scores: the replica's score
	// column starts fully stale, so its first fleet pass re-scores every
	// drive — to the watchlist the primary serves — and only the second
	// is answered from the column.
	type watchlist struct {
		FleetSize int `json:"fleet_size"`
		Items     []struct {
			DriveID uint32  `json:"drive_id"`
			Score   float64 `json:"score"`
			Day     int32   `json:"day"`
		} `json:"items"`
	}
	var pw, rw watchlist
	const q = "/v1/watchlist?threshold=0&k=0"
	if code := getJSON(t, pts.URL+q, &pw); code != http.StatusOK {
		t.Fatalf("primary watchlist: %d", code)
	}
	if code := getJSON(t, rts.URL+q, &rw); code != http.StatusOK {
		t.Fatalf("replica watchlist: %d", code)
	}
	if pw.FleetSize == 0 || !reflect.DeepEqual(pw, rw) {
		t.Fatalf("replica watchlist diverged from the primary's (%d vs %d drives)", rw.FleetSize, pw.FleetSize)
	}
	counters := replica.CounterSnapshot()
	if hits, scored := counters["ssdserved_score_memo_hits_total"], counters["ssdserved_scored_drives_total"]; hits != 0 || scored != float64(rw.FleetSize) {
		t.Fatalf("replica's first pass: %v memo hits and %v scored, want 0 and %d", hits, scored, rw.FleetSize)
	}
	if code := getJSON(t, rts.URL+q, &rw); code != http.StatusOK {
		t.Fatalf("replica watchlist: %d", code)
	}
	if hits := replica.CounterSnapshot()["ssdserved_score_memo_hits_total"]; hits != float64(rw.FleetSize) {
		t.Fatalf("replica's second pass: %v memo hits, want %d", hits, rw.FleetSize)
	}
}

// TestFollowerRestartOverlapIsBenign re-runs a second follower from LSN
// zero against a caught-up replica: every record skips, none double-
// applies, and the cursor still converges.
func TestFollowerRestartOverlapIsBenign(t *testing.T) {
	primary, pts := newNode(t, "n1")
	replica, _ := newNode(t, "f1")

	if code, body := postJSON(t, pts.URL+"/v1/ingest/batch", fleetRecords(0)); code != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", code, body)
	}
	want := primary.CounterSnapshot()["ssdserved_ingest_records_total"]

	run := func() *Follower {
		fol := &Follower{Upstream: pts.URL, Apply: replica.ApplyReplicated, PollInterval: 5 * time.Millisecond}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go fol.Run(ctx)
		waitFor(t, 5*time.Second, "cursor to converge", func() bool {
			return fol.Stats().NextLSN == uint64(want)+1
		})
		return fol
	}
	first := run()
	if st := first.Stats(); float64(st.Applied) != want || st.Skipped != 0 {
		t.Fatalf("first pass applied=%d skipped=%d, want applied=%v", st.Applied, st.Skipped, want)
	}
	second := run()
	if st := second.Stats(); st.Applied != 0 || float64(st.Skipped) != want {
		t.Fatalf("restart overlap applied=%d skipped=%d, want all skipped", st.Applied, st.Skipped)
	}
}

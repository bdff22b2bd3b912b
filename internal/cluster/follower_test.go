package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
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

// TestFollowerParkedPullCostsOnePullPerIngestRequest: against a live
// primary the follower's pull sits parked until an ingest request ends,
// returns that request's records in one reply, and parks again — two
// pulls for one batch, where a poll loop spent one every few
// milliseconds — and the reply's header keeps its view of the primary's
// log position current.
func TestFollowerParkedPullCostsOnePullPerIngestRequest(t *testing.T) {
	primary, pts := newNode(t, "n1")
	replica, _ := newNode(t, "f1")
	fol := &Follower{Upstream: pts.URL, Apply: replica.ApplyReplicated, PollInterval: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()

	parked := func() bool { return primary.CounterSnapshot()["ssdserved_wal_stream_parked"] == 1 }
	waitFor(t, 5*time.Second, "the first pull to park", parked)
	if code, body := postJSON(t, pts.URL+"/v1/ingest/batch", fleetRecords(0)); code != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", code, body)
	}
	want := uint64(primary.CounterSnapshot()["ssdserved_ingest_records_total"])
	waitFor(t, 5*time.Second, "the batch to replicate and the next pull to park", func() bool {
		return fol.Stats().Applied == want && parked()
	})
	st := fol.Stats()
	if st.Pulls != 2 || st.LastErr != nil {
		t.Fatalf("follower stats %+v, want 2 pulls: one woken by the batch, one parked behind it", st)
	}
	if st.PrimaryLSN != want || st.NextLSN != want+1 {
		t.Fatalf("follower sees primary at %d and itself at %d, want %d and %d (no lag)", st.PrimaryLSN, st.NextLSN, want, want+1)
	}
	if got := primary.CounterSnapshot()["ssdserved_wal_stream_wakeups_total"]; got != 1 {
		t.Fatalf("primary counted %v wake-ups, want 1", got)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("follower run: %v", err)
	}
	// The cancelled pull's handler leaves the park with its context.
	waitFor(t, 5*time.Second, "the abandoned pull to leave the park", func() bool { return !parked() })
}

// TestFollowerParkFallsBackToTick: a primary that ignores wait_ms —
// an older build, or one that is draining — answers empty at once and
// never says it parked; Run must poll it at the tick, not spin on it.
// PullOnce never asks to wait at all.
func TestFollowerParkFallsBackToTick(t *testing.T) {
	var mu sync.Mutex
	var waits []string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		waits = append(waits, r.URL.Query().Get("wait_ms"))
		mu.Unlock()
	}))
	defer stub.Close()
	seen := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), waits...)
	}

	once := &Follower{Upstream: stub.URL}
	if progressed, err := once.PullOnce(context.Background()); progressed || err != nil {
		t.Fatalf("PullOnce against an empty stream: progressed %v err %v", progressed, err)
	}
	if got := seen(); len(got) != 1 || got[0] != "" {
		t.Fatalf("PullOnce sent wait_ms %q, want none: an empty reply must mean drained", got)
	}

	const tick = 25 * time.Millisecond
	fol := &Follower{Upstream: stub.URL, PollInterval: tick}
	ctx, cancel := context.WithTimeout(context.Background(), 12*tick)
	defer cancel()
	if err := fol.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("follower run: %v", err)
	}
	got := seen()[1:]
	if len(got) < 2 || len(got) > 14 {
		t.Fatalf("%d pulls in 12 ticks against a primary that does not park, want about 12", len(got))
	}
	if want := strconv.FormatInt(pullWait.Milliseconds(), 10); got[0] != want {
		t.Fatalf("Run sent wait_ms %q, want %q", got[0], want)
	}
	if pullWait*2 > defaultClient().Timeout {
		t.Fatalf("a parked pull may take %v, too close to the client timeout %v", pullWait, defaultClient().Timeout)
	}
}

package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ssdfail/internal/eventlog"
)

func TestRouterRoutesIngestByOwner(t *testing.T) {
	srvA, tsA := newNode(t, "nA")
	srvB, tsB := newNode(t, "nB")
	rt, rts := newTestRouter(t, RouterConfig{Nodes: []Node{
		{Name: "nA", URL: tsA.URL},
		{Name: "nB", URL: tsB.URL},
	}})

	recs := fleetRecords(0)
	code, body := postJSON(t, rts.URL+"/v1/ingest/batch", recs)
	if code != http.StatusAccepted {
		t.Fatalf("batch through router: %d %s", code, body)
	}
	gotA := srvA.CounterSnapshot()["ssdserved_ingest_records_total"]
	gotB := srvB.CounterSnapshot()["ssdserved_ingest_records_total"]
	if gotA+gotB != float64(len(recs)) {
		t.Fatalf("nodes hold %v+%v records, router accepted %d", gotA, gotB, len(recs))
	}
	if gotA == 0 || gotB == 0 {
		t.Fatalf("batch not split across partitions: nA=%v nB=%v", gotA, gotB)
	}

	// Every drive must be reachable through the router at its owner.
	for _, r := range recs[:10] {
		var d struct {
			DriveID uint32 `json:"drive_id"`
			Days    int    `json:"days"`
		}
		if code := getJSON(t, rts.URL+"/v1/drive/"+strconv.FormatUint(uint64(r.DriveID), 10), &d); code != http.StatusOK {
			t.Fatalf("drive %d unreachable through router: %d", r.DriveID, code)
		}
		if d.DriveID != r.DriveID || d.Days != 1 {
			t.Fatalf("drive %d: %+v", r.DriveID, d)
		}
	}
	_ = rt
}

func TestRouterWatchlistMergesAcrossPartitions(t *testing.T) {
	_, tsA := newNode(t, "nA")
	_, tsB := newNode(t, "nB")
	_, rts := newTestRouter(t, RouterConfig{Nodes: []Node{
		{Name: "nA", URL: tsA.URL},
		{Name: "nB", URL: tsB.URL},
	}})

	for _, off := range []int{1, 0} {
		if code, body := postJSON(t, rts.URL+"/v1/ingest/batch", fleetRecords(off)); code != http.StatusAccepted {
			t.Fatalf("batch: %d %s", code, body)
		}
	}

	var wl struct {
		ModelVersion int      `json:"model_version"`
		FleetSize    int      `json:"fleet_size"`
		Count        int      `json:"count"`
		Degraded     []string `json:"degraded"`
		Items        []struct {
			DriveID uint32  `json:"drive_id"`
			Score   float64 `json:"score"`
		} `json:"items"`
	}
	if code := getJSON(t, rts.URL+"/v1/watchlist?threshold=0&k=100000", &wl); code != http.StatusOK {
		t.Fatalf("watchlist: %d", code)
	}
	if len(wl.Degraded) != 0 {
		t.Fatalf("healthy cluster reports degraded %v", wl.Degraded)
	}
	// Every drive carries at least its final day, so the merged fleet
	// size is exactly the fixture's drive count.
	wantFleet := len(fleetRecords(0))
	if wl.FleetSize != wantFleet {
		t.Fatalf("merged fleet_size %d, nodes hold %d", wl.FleetSize, wantFleet)
	}
	if wl.Count == 0 || wl.Count != len(wl.Items) {
		t.Fatalf("count=%d items=%d", wl.Count, len(wl.Items))
	}
	for i := 1; i < len(wl.Items); i++ {
		a, b := wl.Items[i-1], wl.Items[i]
		if a.Score < b.Score || (a.Score == b.Score && a.DriveID > b.DriveID) {
			t.Fatalf("merge order broken at %d: %+v then %+v", i, a, b)
		}
	}
	if wl.ModelVersion == 0 {
		t.Fatal("merged model_version missing")
	}
}

// TestRouterWatchlistDegradesOnSlowLeg is the partial-result contract:
// when one partition's watchlist leg hangs past the per-node deadline,
// the router must still answer 200 within the deadline, carry the
// healthy partitions' items, and name the missing endpoint in
// `degraded` — never silently truncate.
func TestRouterWatchlistDegradesOnSlowLeg(t *testing.T) {
	_, tsA := newNode(t, "nA")

	// nB answers health probes instantly but hangs every watchlist leg
	// (and its hedge) well past the router's deadline.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/health") {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ready"}`)
			return
		}
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()

	deadline := 300 * time.Millisecond
	_, rts := newTestRouter(t, RouterConfig{
		Nodes: []Node{
			{Name: "nA", URL: tsA.URL},
			{Name: "nB", URL: slow.URL},
		},
		PerNodeDeadline: deadline,
		HedgeAfter:      50 * time.Millisecond,
	})

	if code, body := postJSON(t, rts.URL+"/v1/ingest/batch", fleetRecords(0)); code != http.StatusAccepted && code != http.StatusServiceUnavailable {
		t.Fatalf("seeding batch: %d %s", code, body)
	}

	var wl struct {
		Count    int      `json:"count"`
		Degraded []string `json:"degraded"`
	}
	start := time.Now()
	code := getJSON(t, rts.URL+"/v1/watchlist?threshold=0&k=100000", &wl)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("degraded watchlist must still be 200, got %d", code)
	}
	if elapsed > deadline+700*time.Millisecond {
		t.Fatalf("watchlist took %v; the slow leg leaked past its %v deadline", elapsed, deadline)
	}
	if len(wl.Degraded) != 1 || wl.Degraded[0] != "nB" {
		t.Fatalf("degraded = %v, want [nB]", wl.Degraded)
	}
	if wl.Count == 0 {
		t.Fatal("healthy partition's items silently dropped from degraded watchlist")
	}
}

func TestRouterFailsOverToFollower(t *testing.T) {
	_, tsA := newNode(t, "nA")
	_, tsF := newNode(t, "fA")
	rt, rts := newTestRouter(t, RouterConfig{
		Nodes: []Node{
			{Name: "nA", URL: tsA.URL, FollowerName: "fA", FollowerURL: tsF.URL},
		},
		ProbeInterval: 10 * time.Millisecond,
	})
	waitFor(t, 5*time.Second, "initial probes to settle", rt.AllUp)

	// No live replication in this test — both nodes were seeded
	// identically, the point is the routing flip.
	if code, body := postJSON(t, tsF.URL+"/v1/ingest/batch", fleetRecords(0)); code != http.StatusAccepted {
		t.Fatalf("seed follower: %d %s", code, body)
	}

	tsA.Close()
	waitFor(t, 5*time.Second, "promotion", func() bool {
		for _, s := range rt.TrackerStatus() {
			if s.Name == "fA" && s.Active {
				return true
			}
		}
		return false
	})

	id := fleetRecords(0)[0].DriveID
	var d struct {
		DriveID uint32 `json:"drive_id"`
	}
	if code := getJSON(t, rts.URL+"/v1/drive/"+strconv.FormatUint(uint64(id), 10), &d); code != http.StatusOK {
		t.Fatalf("lookup after failover: %d", code)
	}
	if d.DriveID != id {
		t.Fatalf("wrong drive after failover: %+v", d)
	}

	var st struct {
		Endpoints []struct { // shape check only
			Name   string `json:"name"`
			Role   string `json:"role"`
			Up     bool   `json:"up"`
			Active bool   `json:"active"`
		} `json:"endpoints"`
	}
	if code := getJSON(t, rts.URL+"/v1/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("cluster status: %d", code)
	}
	if len(st.Endpoints) != 2 {
		t.Fatalf("status endpoints: %+v", st.Endpoints)
	}
}

// TestRouterStatusHistoryIsBounded: the router retains only the
// tracker's ring of recent transitions, not every one it ever saw, and
// /v1/cluster/status serves the last 100 lines oldest first — the same
// lines a full history would give.
func TestRouterStatusHistoryIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cycles int // down+up flaps of one endpoint, two events each
	}{
		{"beyond the ring", eventlog.DefaultRingCap},
		{"under 100 events", 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := NewRouter(RouterConfig{
				Nodes: []Node{{Name: "n", URL: "http://127.0.0.1:1"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			round := 0
			for c := 0; c < tc.cycles; c++ {
				for _, ok := range []bool{false, false, false, true, true} {
					round++
					for _, e := range rt.tracker.Observe(round, "n", ok) {
						lines = append(lines, e.String())
					}
				}
			}
			if len(lines) != 2*tc.cycles {
				t.Fatalf("%d flaps emitted %d events, want %d", tc.cycles, len(lines), 2*tc.cycles)
			}
			log := rt.tracker.Log()
			if kept := len(log.Recent(0)); kept > eventlog.DefaultRingCap {
				t.Errorf("tracker retains %d events, cap %d", kept, eventlog.DefaultRingCap)
			}
			if log.Total() != uint64(len(lines)) {
				t.Errorf("total %d, want %d", log.Total(), len(lines))
			}

			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
			var st struct {
				Events []string `json:"events"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("status %d: %v", rec.Code, err)
			}
			if want := lines[max(0, len(lines)-100):]; !slices.Equal(st.Events, want) {
				t.Fatalf("status events (%d):\n%v\nwant the last %d:\n%v", len(st.Events), st.Events, len(want), want)
			}
		})
	}
}

func TestRouterMetricsRollup(t *testing.T) {
	_, tsA := newNode(t, "nA")
	_, tsB := newNode(t, "nB")
	_, rts := newTestRouter(t, RouterConfig{Nodes: []Node{
		{Name: "nA", URL: tsA.URL},
		{Name: "nB", URL: tsB.URL},
	}})
	if code, body := postJSON(t, rts.URL+"/v1/ingest/batch", fleetRecords(0)); code != http.StatusAccepted {
		t.Fatalf("batch: %d %s", code, body)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	if !strings.Contains(text, "ssdrouter_rollup_partitions_covered 2") {
		t.Fatalf("rollup coverage missing or partial:\n%s", text)
	}
	want := "ssdserved_ingest_records_total " + strconv.Itoa(len(fleetRecords(0)))
	if !strings.Contains(text, want) {
		t.Fatalf("rollup does not sum node counters (want %q):\n%s", want, text)
	}
}

// TestRouterBodyReadStatus: every ingest route answers a body over the
// cap with 413 and any other body-read failure — a client hanging up
// mid-body — with 400, before anything is forwarded.
func TestRouterBodyReadStatus(t *testing.T) {
	rt, err := NewRouter(RouterConfig{
		Nodes:        []Node{{Name: "n", URL: "http://127.0.0.1:1"}},
		MaxBodyBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	bodies := []struct {
		name string
		body func() io.Reader
		want int
	}{
		{"oversized", func() io.Reader { return strings.NewReader(strings.Repeat("x", 128)) },
			http.StatusRequestEntityTooLarge},
		{"hang-up", func() io.Reader {
			return io.MultiReader(strings.NewReader(`[{"drive_id":`), iotest.ErrReader(io.ErrUnexpectedEOF))
		}, http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/ingest", "/v1/ingest/batch", "/v1/ingest/bin"} {
		for _, b := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, b.body()))
			if rec.Code != b.want {
				t.Errorf("%s %s: status %d, want %d (%s)", path, b.name, rec.Code, b.want, rec.Body)
			}
		}
	}
}

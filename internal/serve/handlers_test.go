package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"ssdfail/internal/core"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/metrics"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/trace"
)

// Shared fixture: a simulated fleet and a small trained predictor saved
// to disk, built once for the whole package.
var (
	fixFleet     *trace.Fleet
	fixModelPath string
	// fixAltModelPath is a second, differently seeded forest: tests that
	// hot-swap between the two can tell by a score's bits which model
	// produced it.
	fixAltModelPath string
	fixLookahead    = 3
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ssdserved-test")
	if err != nil {
		log.Fatal(err)
	}
	cfg := fleetsim.DefaultConfig(7, 80)
	cfg.HorizonDays = 1200
	fleet, _, err := fleetsim.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fixFleet = fleet
	study := core.NewStudy(fleet)
	fcfg := forest.DefaultConfig()
	fcfg.Trees = 20
	fcfg.Seed = 7
	pred, err := study.TrainPredictor(core.PredictorOptions{
		Lookahead: fixLookahead,
		Factory:   forest.NewFactory(fcfg),
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fixModelPath = filepath.Join(dir, "model.bin")
	if err := pred.Save(fixModelPath); err != nil {
		log.Fatal(err)
	}
	fcfg.Trees = 12
	fcfg.Seed = 8
	alt, err := study.TrainPredictor(core.PredictorOptions{
		Lookahead: fixLookahead,
		Factory:   forest.NewFactory(fcfg),
		Seed:      8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fixAltModelPath = filepath.Join(dir, "model-alt.bin")
	if err := alt.Save(fixAltModelPath); err != nil {
		log.Fatal(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{ModelPath: fixModelPath}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fleetDay collects, for every drive with at least offset+1 reports,
// the report offset steps back from its last one, as wire records.
func fleetDay(offset int) []IngestRecord {
	var out []IngestRecord
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		j := len(d.Days) - 1 - offset
		if j < 0 {
			continue
		}
		out = append(out, WireRecord(d.ID, d.Model, &d.Days[j]))
	}
	return out
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

func TestServerIngestScoreWatchlistRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Ingest two consecutive simulated fleet days (previous day first,
	// so the bad-block delta feature has its reference report).
	prevDay, lastDay := fleetDay(1), fleetDay(0)
	if len(lastDay) < 200 {
		t.Fatalf("fixture fleet has only %d drives with reports, want >= 200", len(lastDay))
	}
	var ack struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	resp, data := postJSON(t, ts.URL+"/v1/ingest/batch", prevDay)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch 1: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/ingest/batch", lastDay)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch 2: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != len(lastDay) || ack.Rejected != 0 {
		t.Fatalf("batch 2 ack = %+v, want %d accepted", ack, len(lastDay))
	}

	// Health reflects the ingested fleet.
	var health struct {
		Status       string `json:"status"`
		Drives       int    `json:"drives"`
		ModelVersion int    `json:"model_version"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Drives != len(lastDay) || health.ModelVersion != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// The ranked watchlist over the whole fleet is non-empty and sorted.
	var wl struct {
		ModelVersion int     `json:"model_version"`
		FleetSize    int     `json:"fleet_size"`
		Count        int     `json:"count"`
		Threshold    float64 `json:"threshold"`
		Items        []struct {
			DriveID   uint32  `json:"drive_id"`
			Model     string  `json:"model"`
			Score     float64 `json:"score"`
			Threshold float64 `json:"threshold"`
			Margin    float64 `json:"margin"`
		} `json:"items"`
	}
	if resp := getJSON(t, ts.URL+"/v1/watchlist?threshold=0&k=25", &wl); resp.StatusCode != http.StatusOK {
		t.Fatalf("watchlist status %d", resp.StatusCode)
	}
	if wl.FleetSize != len(lastDay) {
		t.Fatalf("fleet_size = %d, want %d", wl.FleetSize, len(lastDay))
	}
	if wl.Count != 25 || len(wl.Items) != 25 {
		t.Fatalf("count = %d items = %d, want 25", wl.Count, len(wl.Items))
	}
	if !sort.SliceIsSorted(wl.Items, func(a, b int) bool {
		return wl.Items[a].Score > wl.Items[b].Score
	}) {
		t.Fatal("watchlist not sorted by descending score")
	}
	for _, it := range wl.Items {
		if it.Score < 0 || it.Score > 1 {
			t.Fatalf("score %v outside [0,1]", it.Score)
		}
		if _, err := trace.ParseModel(it.Model); err != nil {
			t.Fatalf("bad model in item: %v", err)
		}
		// Every item carries its operating point and margin (the
		// remediation planner's inputs), consistent with the envelope.
		if it.Threshold != wl.Threshold {
			t.Fatalf("item threshold %v != envelope threshold %v", it.Threshold, wl.Threshold)
		}
		if got, want := it.Margin, it.Score-it.Threshold; got != want {
			t.Fatalf("margin = %v, want score-threshold = %v", got, want)
		}
	}

	// Single-drive inspection agrees with the watchlist's top drive.
	top := wl.Items[0]
	var drive struct {
		DriveID uint32  `json:"drive_id"`
		Days    int     `json:"days"`
		Score   float64 `json:"score"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/drive/%d", ts.URL, top.DriveID), &drive); resp.StatusCode != http.StatusOK {
		t.Fatalf("drive status %d", resp.StatusCode)
	}
	if drive.Score != top.Score {
		t.Fatalf("drive score %v != watchlist score %v", drive.Score, top.Score)
	}
	if drive.Days != 2 {
		t.Fatalf("drive days = %d, want 2", drive.Days)
	}

	// Metrics report the ingest and scoring activity.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.MetricsContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	total := len(prevDay) + len(lastDay)
	for _, want := range []string{
		fmt.Sprintf("ssdserved_ingest_records_total %d", total),
		fmt.Sprintf("ssdserved_fleet_drives %d", len(lastDay)),
		// One cold pass: every drive went through the model, none was
		// answered from the score column (the single-drive lookup scores
		// on its own and touches neither counter).
		fmt.Sprintf("ssdserved_scored_drives_total %d", len(lastDay)),
		"ssdserved_score_memo_hits_total 0",
		"ssdserved_score_memo_shards_total 0",
		"ssdserved_model_version 1",
		// The startup load counts as a load, never as a reload: promotion
		// accounting (trainer non-inferiority gate) reads reloads_total as
		// "hot swaps performed", which must start at zero.
		"ssdserved_model_loads_total 1",
		"ssdserved_model_reloads_total 0",
		`ssdserved_http_requests_total{handler="ingest_batch",code="202"} 2`,
		"ssdserved_http_request_duration_seconds_bucket",
		"ssdserved_scoring_duration_seconds_count 1",
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerWatchlistDefaultThreshold(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.WatchlistThreshold = 2 })
	resp, data := postJSON(t, ts.URL+"/v1/ingest/batch", fleetDay(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	// An impossible default threshold filters everything: the endpoint
	// still answers with an empty ranked list.
	var wl struct {
		Count     int     `json:"count"`
		Threshold float64 `json:"threshold"`
	}
	if resp := getJSON(t, ts.URL+"/v1/watchlist", &wl); resp.StatusCode != http.StatusOK {
		t.Fatalf("watchlist status %d", resp.StatusCode)
	}
	if wl.Count != 0 || wl.Threshold != 2 {
		t.Fatalf("watchlist = %+v, want empty at threshold 2", wl)
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 2048 })

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	if resp := post("/v1/ingest", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/ingest", `{"drive_id":1}{"drive_id":2}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data: status %d, want 400", resp.StatusCode)
	}
	big := `[` + strings.Repeat(`{"drive_id":1,"model":"MLC-A"},`, 200) + `]`
	if resp := post("/v1/ingest/batch", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if resp := post("/v1/ingest", `{"drive_id":1,"model":"MLC-Z","day":1}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown model: status %d, want 422", resp.StatusCode)
	}
	if resp := post("/v1/ingest", `{"drive_id":1,"model":"MLC-A","day":-2}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("negative day: status %d, want 422", resp.StatusCode)
	}
	if resp := post("/v1/ingest", `{"drive_id":1,"model":"MLC-A","day":1,"errors":{"bogus_kind":1}}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown error kind: status %d, want 422", resp.StatusCode)
	}

	// A stale (replayed) day conflicts with retained state.
	ok := post("/v1/ingest", `{"drive_id":9,"model":"MLC-A","day":5,"age":5}`)
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("valid ingest: status %d", ok.StatusCode)
	}
	if resp := post("/v1/ingest", `{"drive_id":9,"model":"MLC-A","day":5,"age":5}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("stale day: status %d, want 422", resp.StatusCode)
	}

	if resp := getJSON(t, ts.URL+"/v1/drive/notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad drive id: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/drive/424242", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown drive: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/watchlist?k=oops", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", resp.StatusCode)
	}

	// Rejections are visible on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ssdserved_ingest_rejected_total{reason="invalid_record"}`,
		`ssdserved_ingest_rejected_total{reason="store_conflict"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerConcurrentIngestAndReload exercises the hot-swap path under
// load: one goroutine streams ingest batches, one hammers model reload
// (against a file being rewritten with valid and corrupt payloads), and
// one reads watchlists. Run under -race this validates that scoring
// never observes a torn model swap.
func TestServerConcurrentIngestAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	valid, err := os.ReadFile(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(c *Config) { c.ModelPath = path })

	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, 3)

	wg.Add(1)
	go func() { // ingest: a fresh sliver of fleet per round
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			day := int32(1000 + i)
			batch := make([]IngestRecord, 0, 40)
			for d := 0; d < 40; d++ {
				r := rec(day)
				ir := WireRecord(uint32(5000+d), trace.MLCB, &r)
				batch = append(batch, ir)
			}
			body, _ := json.Marshal(batch)
			resp, err := http.Post(ts.URL+"/v1/ingest/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("ingest round %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reload, alternating valid and corrupt model files
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			payload := valid
			if i%3 == 2 {
				payload = []byte("garbage")
			}
			if err := os.WriteFile(path, payload, 0o644); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/model/reload", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			wantCorrupt := i%3 == 2
			if wantCorrupt && resp.StatusCode != http.StatusInternalServerError {
				errs <- fmt.Errorf("reload round %d: corrupt model gave status %d", i, resp.StatusCode)
				return
			}
			if !wantCorrupt && resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload round %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // watchlist reads throughout
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(ts.URL + "/v1/watchlist?threshold=0")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("watchlist round %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The daemon survived: the model serves, versions advanced, and the
	// failure counter reflects the corrupt reloads.
	var info ModelInfo
	if resp := getJSON(t, ts.URL+"/v1/model", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("model status %d", resp.StatusCode)
	}
	if info.Version < 2 {
		t.Fatalf("model version %d, want >= 2 after reloads", info.Version)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "ssdserved_model_reload_failures_total 10") {
		t.Errorf("metrics missing reload failure count:\n%s", grepLines(string(metrics), "reload"))
	}
	// Exact accounting of the split counters under load: 20 of the 30
	// reload attempts succeeded, and loads additionally counts the
	// startup load.
	if !strings.Contains(string(metrics), "ssdserved_model_reloads_total 20") {
		t.Errorf("metrics missing successful reload count:\n%s", grepLines(string(metrics), "reload"))
	}
	if !strings.Contains(string(metrics), "ssdserved_model_loads_total 21") {
		t.Errorf("metrics missing load count:\n%s", grepLines(string(metrics), "loads"))
	}
}

// TestModelReloadFailurePaths pins the reload failure path end to end:
// corrupt challenger bytes must fail the reload with a 500, advance
// only the failure counter, and leave the serving model — identity,
// version, and scoreability — untouched; restoring valid bytes must
// succeed and advance exactly the load/reload counters.
func TestModelReloadFailurePaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	valid, err := os.ReadFile(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(c *Config) { c.ModelPath = path })

	counters := func() (loads, reloads, failures string) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		sample := func(name string) string {
			for _, line := range strings.Split(string(body), "\n") {
				if strings.HasPrefix(line, name+" ") {
					return line
				}
			}
			return ""
		}
		return sample("ssdserved_model_loads_total"),
			sample("ssdserved_model_reloads_total"),
			sample("ssdserved_model_reload_failures_total")
	}

	// Startup: one load, zero reloads, zero failures.
	if l, r, f := counters(); l != "ssdserved_model_loads_total 1" ||
		r != "ssdserved_model_reloads_total 0" ||
		f != "ssdserved_model_reload_failures_total 0" {
		t.Fatalf("startup counters: %q %q %q", l, r, f)
	}
	before := ModelInfo{}
	getJSON(t, ts.URL+"/v1/model", &before)

	// Corrupt challenger bytes: the reload must fail loudly...
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/model/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: status %d body %s", resp.StatusCode, body)
	}
	if l, r, f := counters(); l != "ssdserved_model_loads_total 1" ||
		r != "ssdserved_model_reloads_total 0" ||
		f != "ssdserved_model_reload_failures_total 1" {
		t.Fatalf("post-corrupt counters: %q %q %q", l, r, f)
	}
	// ...and the champion keeps serving, byte for byte.
	after := ModelInfo{}
	getJSON(t, ts.URL+"/v1/model", &after)
	if after.Version != before.Version || after.SHA256 != before.SHA256 {
		t.Fatalf("serving model changed under a failed reload: %+v -> %+v", before, after)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest/batch", fleetDay(0)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after failed reload: status %d", resp.StatusCode)
	}

	// Valid bytes again: the swap lands and the split counters advance.
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/model/reload", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid reload: status %d body %s", resp.StatusCode, body)
	}
	if l, r, f := counters(); l != "ssdserved_model_loads_total 2" ||
		r != "ssdserved_model_reloads_total 1" ||
		f != "ssdserved_model_reload_failures_total 1" {
		t.Fatalf("post-recovery counters: %q %q %q", l, r, f)
	}
	final := ModelInfo{}
	getJSON(t, ts.URL+"/v1/model", &final)
	if final.Version != before.Version+1 {
		t.Fatalf("version %d after recovery, want %d", final.Version, before.Version+1)
	}
}

// grepLines returns the lines of s containing substr, for focused
// failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestLoadShedding fills a handler's concurrency bound and checks the
// excess request is shed with 429 + Retry-After instead of queueing.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInflightIngest = 1
		c.MaxInflightScores = 1
	})
	s.ingestSem <- struct{}{} // occupy the only ingest slot
	resp, body := postJSON(t, ts.URL+"/v1/ingest", fleetDay(0)[0])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	<-s.ingestSem
	// Slot free again: the same request now succeeds.
	if resp, body := postJSON(t, ts.URL+"/v1/ingest", fleetDay(0)[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("after release status = %d: %s", resp.StatusCode, body)
	}

	s.scoreSem <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/watchlist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("watchlist status = %d, want 429", resp.StatusCode)
	}
	<-s.scoreSem

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`ssdserved_load_shed_total{handler="ingest"} 1`,
		`ssdserved_load_shed_total{handler="watchlist"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(string(metrics), "shed"))
		}
	}
}

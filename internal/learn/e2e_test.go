package learn

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ssdfail/internal/dataset"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/model"
	"ssdfail/internal/serve"
)

// invertLabels is the strongest possible crippling: the mutated
// trainee learns the anti-signal, so its holdout AUC lands well below
// coin-flip — strictly inferior to any champion worth its slot.
func invertLabels(m *dataset.Matrix) {
	for i := range m.Y {
		m.Y[i] = 1 - m.Y[i]
	}
}

// weakChampion trains a deliberately stale predictor: real features,
// scrambled labels. It is what a champion looks like after the world
// has drifted away from its training regime — scoring near coin-flip —
// so a freshly retrained challenger clears the non-inferiority gate.
func weakChampion(t *testing.T) *model.Predictor {
	t.Helper()
	cfg := testConfig()
	cfg.MutateTrain = invertLabels
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(l, steadyStream())
	if o := l.Retrain(); !o.Promoted {
		t.Fatalf("weak champion training failed: %+v", o)
	}
	return l.Champion()
}

// modelInfo fetches the daemon's current model identity.
func modelInfo(t *testing.T, baseURL string) model.Info {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info model.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// metricValue scrapes one counter/gauge from the daemon's /metrics.
func metricValue(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// e2eLoopConfig is the trainer tuning shared by both legs of the end-
// to-end test: windows sized for the replay volume, an alpha only a
// genuine shift can cross, and a forest small enough to keep the test
// wall fast.
func e2eLoopConfig() Config {
	return Config{
		Seed:         42,
		Trees:        15,
		Window:       128,
		CheckEvery:   64,
		Alpha:        1e-9,
		QuietDays:    7,
		MinTrainRows: 200,
		Margin:       0.05,
		ObserveEvery: -1,
	}
}

// TestEndToEndPromotionLoop closes the full loop against live
// processes: ssdload drives a WAL-enabled ssdserved with a fleetsim
// replay whose drift cohort comes online mid-run; the trainer tails
// that daemon's WAL, detects the shift, retrains, and promotes through
// a real POST /v1/model/reload. A second, deliberately crippled trainer
// over the same WAL must then be rejected with the promoted champion
// left serving. With SSDFAIL_LEARN_REPORT set, a machine-readable
// benchmark report is written to that path.
func TestEndToEndPromotionLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end promotion loop skipped in -short mode")
	}

	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	if err := weakChampion(t).Save(modelPath); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		ModelPath: modelPath,
		WALDir:    filepath.Join(dir, "wal"),
		// The trainer tails the WAL from genesis: snapshots would prune
		// the record history it labels from.
		SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive the daemon: a 100-day replay window with boosted failure
	// hazards (so the window carries labeled failures) and a 6x-write
	// drift cohort entering at the midpoint.
	sched, err := loadgen.Build(loadgen.Config{
		Seed:           11,
		Mode:           loadgen.ModeClosed,
		Streams:        2,
		DrivesPerModel: 48,
		HorizonDays:    180,
		Days:           120,
		BatchSize:      32,
		ProbeEvery:     64,
		HazardMult:     15,
		DriftWriteMult: 6,
		DriftAfterFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	runner := &loadgen.Runner{BaseURL: ts.URL}
	res, err := runner.Run(ctx, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedRecords == 0 {
		t.Fatal("load run ingested nothing")
	}

	// Leg 1: the live trainer. Catch up on the full WAL (drift fires
	// and retrains run synchronously inside the catch-up), then one
	// forced final attempt — exactly cmd/ssdtrain -once.
	tr, err := NewTrainer(TrainerConfig{
		Upstream:  ts.URL,
		ModelPath: modelPath,
		Loop:      e2eLoopConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	catchUpStart := time.Now()
	if err := tr.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	catchUpWall := time.Since(catchUpStart)
	retrainStart := time.Now()
	if tr.Loop.Stats().Promotions == 0 {
		tr.Loop.Retrain()
	}
	retrainWall := time.Since(retrainStart)

	st := tr.Loop.Stats()
	t.Logf("leg 1: records=%d drives=%d frontier=%d drift=%d retrains=%d promotions=%d rejections=%d skips=%d champion=%.3f challenger=%.3f",
		st.Records, st.Drives, st.Frontier, st.DriftEvents, st.Retrains,
		st.Promotions, st.Rejections, st.Skips, st.ChampionAUC, st.ChallengerAUC)
	if st.Records == 0 || uint64(res.AcceptedRecords) != st.Records {
		t.Fatalf("trainer applied %d records, daemon accepted %d", st.Records, res.AcceptedRecords)
	}
	if st.DriftEvents == 0 {
		t.Fatal("the mid-run distribution shift was never detected")
	}
	if st.Promotions == 0 {
		t.Fatalf("no promotion: retrains=%d rejections=%d skips=%d champion=%.3f challenger=%.3f",
			st.Retrains, st.Rejections, st.Skips, st.ChampionAUC, st.ChallengerAUC)
	}

	// The daemon must be serving exactly what the trainer published:
	// one startup load plus one version per promotion, and the live
	// model file must hash to the daemon's reported SHA.
	info := modelInfo(t, ts.URL)
	if want := 1 + int(st.Promotions); info.Version != want {
		t.Fatalf("daemon at model version %d, want %d (1 startup + %d promotions)",
			info.Version, want, st.Promotions)
	}
	if got := metricValue(t, ts.URL, "ssdserved_model_reloads_total"); got != float64(st.Promotions) {
		t.Fatalf("ssdserved_model_reloads_total %v, want %d", got, st.Promotions)
	}
	if got := metricValue(t, ts.URL, "ssdserved_model_loads_total"); got != float64(1+st.Promotions) {
		t.Fatalf("ssdserved_model_loads_total %v, want %d", got, 1+st.Promotions)
	}
	published, err := model.LoadPredictor(modelPath)
	if err != nil {
		t.Fatalf("promoted model file unreadable: %v", err)
	}
	if published.Lookahead != tr.Loop.cfg.Lookahead {
		t.Fatalf("published model lookahead %d, want %d", published.Lookahead, tr.Loop.cfg.Lookahead)
	}

	// Leg 2: a crippled challenger pipeline over the same WAL. The
	// champion slot now holds the freshly promoted model (loaded from
	// the shared file); the label-scrambled challenger must lose to it,
	// and the daemon must keep serving the promoted version.
	crippled := e2eLoopConfig()
	crippled.MutateTrain = invertLabels
	tr2, err := NewTrainer(TrainerConfig{
		Upstream:  ts.URL,
		ModelPath: modelPath,
		Loop:      crippled,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if tr2.Loop.Stats().Retrains == 0 {
		tr2.Loop.Retrain()
	}
	st2 := tr2.Loop.Stats()
	t.Logf("leg 2: retrains=%d promotions=%d rejections=%d skips=%d champion=%.3f challenger=%.3f",
		st2.Retrains, st2.Promotions, st2.Rejections, st2.Skips, st2.ChampionAUC, st2.ChallengerAUC)
	if st2.Promotions != 0 {
		t.Fatalf("crippled challenger promoted %d times", st2.Promotions)
	}
	if st2.Rejections == 0 {
		t.Fatalf("crippled challenger never rejected: retrains=%d skips=%d", st2.Retrains, st2.Skips)
	}
	if after := modelInfo(t, ts.URL); after.Version != info.Version || after.SHA256 != info.SHA256 {
		t.Fatalf("daemon model changed under a rejected challenger: %d/%s -> %d/%s",
			info.Version, info.SHA256[:12], after.Version, after.SHA256[:12])
	}

	if out := os.Getenv("SSDFAIL_LEARN_REPORT"); out != "" {
		writeLearnReport(t, out, res, st, catchUpWall, retrainWall)
	}
}

// writeLearnReport emits the train-loop benchmark artifact: retrain
// wall time, re-extraction throughput, and the champion/challenger AUC
// gap, in the BENCH_*.json house format CI uploads.
func writeLearnReport(t *testing.T, path string, res *loadgen.Result, st Stats, catchUp, retrain time.Duration) {
	t.Helper()
	wall := catchUp + retrain
	rowsPerSec := 0.0
	if s := wall.Seconds(); s > 0 {
		rowsPerSec = float64(st.RowsExtracted) / s
	}
	report := map[string]any{
		"records_streamed":    st.Records,
		"accepted_records":    res.AcceptedRecords,
		"fleet_drives":        st.Drives,
		"drift_events":        st.DriftEvents,
		"retrains":            st.Retrains,
		"promotions":          st.Promotions,
		"rejections":          st.Rejections,
		"skips":               st.Skips,
		"rows_extracted":      st.RowsExtracted,
		"catchup_ms":          catchUp.Milliseconds(),
		"final_retrain_ms":    retrain.Milliseconds(),
		"extraction_rows_sec": rowsPerSec,
		"champion_auc":        st.ChampionAUC,
		"challenger_auc":      st.ChallengerAUC,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("benchmark report: %s", path)
}

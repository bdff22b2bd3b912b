package ssdfail_test

// End-to-end integration test: the full workflow a downstream user runs,
// from generation through trace I/O, characterization, training,
// predictor persistence, and fleet scoring.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssdfail/internal/core"
	"ssdfail/internal/experiments"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/model"
	"ssdfail/internal/serve"
	"ssdfail/internal/smartio"
	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

func TestEndToEndWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	dir := t.TempDir()

	// 1. Generate and persist a fleet.
	study, err := core.GenerateStudy(1234, 100)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	fleetPath := filepath.Join(dir, "fleet.bin")
	out, err := os.Create(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(out, study.Fleet); err != nil {
		t.Fatalf("save fleet: %v", err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and verify the reconstruction is identical.
	in, err := os.Open(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := trace.ReadBinary(in)
	in.Close()
	if err != nil {
		t.Fatalf("load fleet: %v", err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("loaded fleet: %v", err)
	}
	reloaded := core.NewStudy(fleet)
	if len(reloaded.Analysis.Events) != len(study.Analysis.Events) {
		t.Fatalf("event count changed across save/load: %d vs %d",
			len(reloaded.Analysis.Events), len(study.Analysis.Events))
	}

	// 3. Run the characterization experiments on the loaded fleet.
	cfg := experiments.DefaultConfig()
	ctx, err := experiments.NewContextFromFleet(cfg, reloaded.Fleet)
	if err != nil {
		t.Fatalf("context: %v", err)
	}
	for name, tbl := range map[string]interface{ String() string }{
		"table1":  experiments.Table1(ctx),
		"table3":  experiments.Table3(ctx),
		"table4":  experiments.Table4(ctx),
		"table5":  experiments.Table5(ctx),
		"figure2": experiments.Figure2(ctx),
	} {
		if out := tbl.String(); len(out) < 40 {
			t.Errorf("%s suspiciously short:\n%s", name, out)
		}
	}

	// 4. Train, persist, reload, and use a predictor.
	pred, err := reloaded.TrainPredictor(core.PredictorOptions{
		Lookahead: 2, Seed: 5, HoldoutFraction: 0.25,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	predPath := filepath.Join(dir, "predictor.bin")
	if err := pred.Save(predPath); err != nil {
		t.Fatalf("save predictor: %v", err)
	}
	loadedPred, err := model.LoadPredictor(predPath)
	if err != nil {
		t.Fatalf("load predictor: %v", err)
	}
	watch := reloaded.Watchlist(loadedPred, 0, 5)
	if len(watch) != 5 {
		t.Fatalf("watchlist = %d entries", len(watch))
	}

	// 5. Feed the reconstruction into the spare-pool planner.
	spares, res, err := sparepool.MinimalSpares(reloaded.Analysis, 0.95, true)
	if err != nil {
		t.Fatalf("sparepool: %v", err)
	}
	if res.ServiceLevel < 0.95 {
		t.Errorf("planner returned %d spares but service = %.3f", spares, res.ServiceLevel)
	}

	// 6. Round-trip a SMART import through the same pipeline.
	smartCSV := "date,serial_number,model,failure,smart_241_raw,smart_187_raw\n" +
		"2024-01-01,A1,M,0,100,0\n" +
		"2024-01-02,A1,M,0,200,3\n" +
		"2024-01-03,A1,M,1,210,9\n"
	fleet2, err := smartio.ReadCSV(strings.NewReader(smartCSV), smartio.Options{})
	if err != nil {
		t.Fatalf("smart import: %v", err)
	}
	an2 := failure.Analyze(fleet2)
	if len(an2.Events) != 1 {
		t.Fatalf("smart events = %d", len(an2.Events))
	}
	if s := loadedPred.ScoreDrive(&fleet2.Drives[0]); s < 0 || s > 1 {
		t.Fatalf("smart-drive score = %v", s)
	}

	// 7. CSV trace export/import agrees with the binary format.
	csvPath := filepath.Join(dir, "fleet.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, reloaded.Fleet); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fromCSV.DriveDays() != reloaded.Fleet.DriveDays() {
		t.Fatalf("CSV round trip changed drive-days: %d vs %d",
			fromCSV.DriveDays(), reloaded.Fleet.DriveDays())
	}
}

// TestServeLoadConformance is the end-to-end conformance pass for the
// serving stack: train a model, boot a daemon, drive a deterministic
// load schedule through loadgen over real HTTP, and require the daemon's
// end state and metrics to exactly account for everything driven —
// including a hot model swap mid-run. A second open-loop run against the
// same (now warm) daemon at a disjoint drive-ID range must also conform,
// proving the accounting is delta-based, not fresh-boot-only.
func TestServeLoadConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	dir := t.TempDir()

	// Train a small but real predictor for the daemon to serve.
	fcfg := fleetsim.DefaultConfig(7, 60)
	fcfg.HorizonDays = 400
	fcfg.EarlyWindow = 150
	fleet, _, err := fleetsim.Generate(fcfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	forestCfg := forest.DefaultConfig()
	forestCfg.Trees = 10
	forestCfg.Seed = 7
	pred, err := core.NewStudy(fleet).TrainPredictor(core.PredictorOptions{
		Lookahead: 3, Factory: forest.NewFactory(forestCfg), Seed: 7,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	modelPath := filepath.Join(dir, "model.bin")
	if err := pred.Save(modelPath); err != nil {
		t.Fatalf("save model: %v", err)
	}

	srv, err := serve.New(serve.Config{ModelPath: modelPath})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Schedule construction is deterministic: same config, same hash.
	lcfg := loadgen.DefaultConfig(21)
	lcfg.DrivesPerModel = 8
	lcfg.HorizonDays = 150
	lcfg.Days = 12
	lcfg.Streams = 4
	lcfg.BatchSize = 8
	lcfg.ProbeEvery = 3
	sched, err := loadgen.Build(lcfg)
	if err != nil {
		t.Fatalf("build schedule: %v", err)
	}
	again, err := loadgen.Build(lcfg)
	if err != nil {
		t.Fatalf("rebuild schedule: %v", err)
	}
	if sched.Hash != again.Hash {
		t.Fatalf("schedule not reproducible:\n%s\n%s", sched.Hash, again.Hash)
	}

	ctx := context.Background()
	runner := &loadgen.Runner{BaseURL: ts.URL}
	res, err := runner.Run(ctx, sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	violations, err := runner.Verify(ctx, res, loadgen.VerifyOptions{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, v := range violations {
		t.Errorf("conformance: %s", v)
	}
	if res.AcceptedRecords != uint64(sched.TotalRecords) {
		t.Errorf("accepted %d records, scheduled %d", res.AcceptedRecords, sched.TotalRecords)
	}
	if len(res.Reloads) != 1 {
		t.Errorf("observed %d hot reloads, scheduled 1", len(res.Reloads))
	}

	// The benchmark report must carry real, ordered latency quantiles.
	rep := loadgen.NewReport(res, violations, true)
	if rep.ScheduleSHA256 != sched.Hash {
		t.Errorf("report hash %s != schedule hash %s", rep.ScheduleSHA256, sched.Hash)
	}
	q := rep.Endpoints["ingest_batch"]
	if q.Count == 0 || q.P50 <= 0 || q.P99 <= 0 || q.P999 <= 0 {
		t.Errorf("degenerate ingest quantiles: %+v", q)
	}
	if q.P50 > q.P90 || q.P90 > q.P99 || q.P99 > q.P999 || q.P999 > q.Max {
		t.Errorf("quantiles out of order: %+v", q)
	}
	if !rep.Conformance.Pass {
		t.Error("report records a conformance failure")
	}

	// Second act: open-loop pacing against the warm daemon, disjoint
	// drive IDs. Exact accounting must hold as deltas over prior state.
	lcfg2 := lcfg
	lcfg2.Seed = 22
	lcfg2.Mode = loadgen.ModeOpen
	lcfg2.RatePerStream = 2000
	lcfg2.DriveIDOffset = 1 << 20
	sched2, err := loadgen.Build(lcfg2)
	if err != nil {
		t.Fatalf("build open schedule: %v", err)
	}
	res2, err := runner.Run(ctx, sched2)
	if err != nil {
		t.Fatalf("open run: %v", err)
	}
	violations2, err := runner.Verify(ctx, res2, loadgen.VerifyOptions{})
	if err != nil {
		t.Fatalf("open verify: %v", err)
	}
	for _, v := range violations2 {
		t.Errorf("open-loop conformance: %s", v)
	}

	// The daemon's own in-process snapshot agrees with everything both
	// runs drove into it.
	snap := srv.CounterSnapshot()
	wantAccepted := float64(res.AcceptedRecords + res2.AcceptedRecords)
	if got := snap["ssdserved_ingest_records_total"]; got != wantAccepted {
		t.Errorf("server snapshot ingest_records_total = %v, clients accepted %v", got, wantAccepted)
	}
}

func TestGeneratedFleetMatchesScaleKnobs(t *testing.T) {
	cfg := fleetsim.DefaultConfig(9, 30)
	cfg.HorizonDays = 800
	cfg.EarlyWindow = 200
	fleet, truth, err := fleetsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Drives) != 90 || len(truth.Drives) != 90 {
		t.Fatalf("scale mismatch: %d drives", len(fleet.Drives))
	}
	if fleet.Horizon != 800 {
		t.Fatalf("horizon = %d", fleet.Horizon)
	}
}

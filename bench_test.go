package ssdfail_test

// One benchmark per table and figure of the paper (see DESIGN.md §4 for
// the index), plus generation/IO/microbenchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The prediction benchmarks report the measured AUC as a custom metric
// so the paper-shape can be checked from benchmark output alone.

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"ssdfail/internal/core"
	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/experiments"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/serve"
	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

// benchScale reads SSDFAIL_BENCH_DRIVES (drives per model; default 150)
// so large machines can run the benches at paper-report scale.
func benchScale() int {
	if v := os.Getenv("SSDFAIL_BENCH_DRIVES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 150
}

func getBenchCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Seed = 42
		cfg.DrivesPerModel = benchScale()
		cfg.CVFolds = 3
		cfg.ForestTrees = 50
		cfg.TestNegSampleProb = 0.2
		benchCtx, benchErr = experiments.NewContext(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// --- Substrate benchmarks ---

func BenchmarkFleetGeneration(b *testing.B) {
	cfg := fleetsim.DefaultConfig(1, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fleet, _, err := fleetsim.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(fleet.DriveDays()), "drive-days")
	}
}

func BenchmarkFailureReconstruction(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := failure.Analyze(ctx.Fleet)
		if len(an.Events) == 0 {
			b.Fatal("no events")
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{
			Lookahead: 1, NegativeSampleProb: 0.1, Seed: uint64(i), AgeMax: -1,
		})
		if m.Len() == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkBinaryCodecRoundTrip(b *testing.B) {
	ctx := getBenchCtx(b)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, ctx.Fleet); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestTraining(b *testing.B) {
	ctx := getBenchCtx(b)
	train := dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{Lookahead: 1, AgeMax: -1})
	train = dataset.Downsample(train, 1, 7)
	cfg := forest.DefaultConfig()
	cfg.Trees = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.New(cfg)
		if err := f.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparePoolSimulation(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparepool.Simulate(ctx.An, sparepool.Policy{
			InitialSpares: 4, ReorderPoint: 2, OrderQty: 4,
			LeadTimeDays: 28, ReuseRepaired: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ServiceLevel, "service")
	}
}

func BenchmarkSurvivalKaplanMeier(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.SurvivalAnalysis(ctx); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkForestSerialization(b *testing.B) {
	ctx := getBenchCtx(b)
	train := dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{Lookahead: 1, AgeMax: -1})
	train = dataset.Downsample(train, 1, 7)
	f := forest.New(forest.Config{Trees: 50, MaxDepth: 12, MinLeaf: 2, Seed: 1})
	if err := f.Fit(train); err != nil {
		b.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g forest.Forest
		if err := g.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// serveFleetClones is how many ID-shifted copies of the benchmark fleet
// BenchmarkServeScoreFleet keeps resident (18k drives at the default
// scale), so 0.2 % of it is a few dozen drives rather than a fraction of
// one.
const serveFleetClones = 40

// BenchmarkServeScoreFleet measures the serving daemon's fleet scoring
// pass, as triggered by GET /v1/watchlist, at one worker and at
// GOMAXPROCS workers:
//
//   - cold: every score slot is stale (each iteration poses as a new
//     model version), so the pass snapshots, featurizes and scores every
//     drive and writes every score back — the full pass of a daemon that
//     just booted or just swapped models;
//   - warm: 0.2 % of the drives reported since the last pass (the share
//     a steady trickle dirties between two polls), the rest is answered
//     from the resident score column.
func BenchmarkServeScoreFleet(b *testing.B) {
	ctx := getBenchCtx(b)
	store := serve.NewStore(0, 0)
	var stride uint32
	for di := range ctx.Fleet.Drives {
		stride = max(stride, ctx.Fleet.Drives[di].ID+1)
	}
	for c := uint32(0); c < serveFleetClones; c++ {
		for di := range ctx.Fleet.Drives {
			d := &ctx.Fleet.Drives[di]
			for _, r := range d.Days[max(len(d.Days)-2, 0):] {
				if err := store.Upsert(c*stride+d.ID, d.Model, r); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	fcfg := forest.DefaultConfig()
	fcfg.Trees = 50
	fcfg.Seed = 7
	pred, err := core.NewStudy(ctx.Fleet).TrainPredictor(core.PredictorOptions{
		Lookahead: 3,
		Factory:   forest.NewFactory(fcfg),
		Seed:      7,
	})
	if err != nil {
		b.Fatal(err)
	}
	fleet := store.Len()
	if fleet == 0 {
		b.Fatal("empty fleet")
	}
	// The trickle: every 500th drive reports again before each warm pass
	// (restoring a drive's own state invalidates its slot like a report).
	var trickle []serve.DriveSnapshot
	for i, snap := range store.Drives() {
		if i%500 == 0 {
			trickle = append(trickle, snap)
		}
	}
	emit := func(serve.Scored) {}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	version := 0
	for _, workers := range workerCounts {
		sc := serve.NewScorer(workers)
		b.Run("cold/workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				version++
				if st := sc.Sweep(store, pred, version, 0, 0.9, emit); st.Scored != fleet {
					b.Fatalf("cold pass scored %d of %d drives", st.Scored, fleet)
				}
			}
			b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "drives/s")
		})
		b.Run("warm/workers="+strconv.Itoa(workers), func(b *testing.B) {
			version++
			sc.Sweep(store, pred, version, 0, 0.9, emit)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, snap := range trickle {
					store.Restore(snap)
				}
				b.StartTimer()
				if st := sc.Sweep(store, pred, version, 0, 0.9, emit); st.Scored != len(trickle) || st.Fleet() != fleet {
					b.Fatalf("warm pass scored %d drives of a fleet of %d, want %d of %d", st.Scored, st.Fleet(), len(trickle), fleet)
				}
			}
			b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "drives/s")
		})
	}
}

// --- Characterization: Tables 1-5, Figures 1, 3-11 ---

func BenchmarkTable1ErrorIncidence(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table1(ctx); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable2SpearmanMatrix(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table2(ctx); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable3FailureIncidence(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table3(ctx); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable4FailureCounts(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table4(ctx); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable5RepairReentry(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Table5(ctx); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func benchFigure(b *testing.B, run func(*experiments.Context) bool) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !run(ctx) {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure2Timeline(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		return len(experiments.Figure2(ctx).Rows) > 0
	})
}

func BenchmarkFigure1AgeDataCDF(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure1(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure3OperationalCDF(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure3(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure4NonOperationalCDF(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure4(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure5RepairCDF(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure5(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure6FailureAge(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure6(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure7WriteIntensity(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure7(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure8PECycles(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure8(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure9PEYoungOld(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure9(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure10ErrorCDFs(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		tbl, _ := experiments.Figure10(ctx)
		return len(tbl.Rows) > 0
	})
}

func BenchmarkFigure11PreFailureErrors(b *testing.B) {
	benchFigure(b, func(ctx *experiments.Context) bool {
		top, bottom := experiments.Figure11(ctx)
		return len(top.Rows) > 0 && len(bottom.Rows) > 0
	})
}

// --- Prediction: Tables 6-8, Figures 12-16 ---

// benchCellAUC cross-validates one of the Table 6 classifiers through
// the engine per iteration and reports its mean AUC.
func benchCellAUC(b *testing.B, cs expgrid.ClassifierSpec, lookahead int) {
	spec := getBenchCtx(b).GridSpec(lookahead)
	spec.Classifiers = []expgrid.ClassifierSpec{cs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := expgrid.Run(spec)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			b.Fatal(err)
		}
		aucs, _ := res.Cell("all", cs.Label, lookahead)
		b.ReportMetric(eval.Summarize(aucs).Mean, "auc")
	}
}

// BenchmarkTable6ModelComparison cross-validates each of the six models
// at N=1 and reports its AUC (the full Table 6 sweeps N in {1,2,3,7};
// run cmd/ssdpredict for the complete grid).
func BenchmarkTable6ModelComparison(b *testing.B) {
	for _, cs := range getBenchCtx(b).GridSpec(1).Classifiers {
		b.Run(cs.Label, func(b *testing.B) { benchCellAUC(b, cs, 1) })
	}
}

func BenchmarkTable7Transfer(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 3 {
			b.Fatal("incomplete Table 7")
		}
	}
}

func BenchmarkTable8ErrorPrediction(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 10 {
			b.Fatal("incomplete Table 8")
		}
	}
}

func BenchmarkFigure12LookaheadSweep(b *testing.B) {
	for _, n := range []int{1, 7, 30} {
		b.Run("N="+strconv.Itoa(n), func(b *testing.B) {
			specs := getBenchCtx(b).GridSpec(n).Classifiers
			benchCellAUC(b, specs[len(specs)-1], n) // the random forest
		})
	}
}

func BenchmarkFigure13PerModelROC(b *testing.B) {
	ctx := getBenchCtx(b)
	ps, err := ctx.PooledCV(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, _ := experiments.Figure13(ctx, ps)
		if len(tbl.Rows) != 3 {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkFigure14TPRByAge(b *testing.B) {
	ctx := getBenchCtx(b)
	ps, err := ctx.PooledCV(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, _ := experiments.Figure14(ctx, ps)
		if len(tbl.Rows) == 0 {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkFigure15YoungOldROC(b *testing.B) {
	ctx := getBenchCtx(b)
	ps, err := ctx.PooledCV(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, _, err := experiments.Figure15(ctx, ps)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 4 {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkFigure16FeatureImportance(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure16(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 10 {
			b.Fatal("incomplete")
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

func BenchmarkAblationFoldPartitioning(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSplit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDownsampling(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDownsampling(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFeatureSets(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFeatureSets(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationForestSize(b *testing.B) {
	ctx := getBenchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationForestSize(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

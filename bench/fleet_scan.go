package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"ssdfail/internal/core"
)

// fleet_scan sizing. The resident fleet is the base fleet cloned
// scanClones times (~36k drives), preloaded with scanPreloadDays days
// over the binary wire; the timed window has one closed-loop watchlist
// client beside one open-loop connection trickling the next day as
// scanTrickleBatch-record JSON batches at scanTrickleRate requests/s.
const (
	scanClones       = 30
	scanPreloadDays  = 2
	scanPreloadBatch = 1024
	scanTrickleBatch = 32
	scanTrickleRate  = 40.0
	scanTrials       = 4
	scanTailP        = 90
	scanTrickleTailP = 95
)

// scanInputs are fleet_scan's one-off inputs.
type scanInputs struct {
	in      *Inputs
	pred    *core.Predictor // loaded back from the model file, for the reference watchlist
	preload *Schedule
	trickle *Schedule
}

func buildScanInputs(seed uint64, dir string) (*scanInputs, error) {
	in, err := BuildInputs(seed, dir)
	if err != nil {
		return nil, err
	}
	si := &scanInputs{in: in}
	if si.pred, err = loadPredictor(in.ModelPath); err != nil {
		return nil, err
	}
	day3 := in.Fleet.Horizon - 1
	si.preload = EncodeBin(DayMajor(in.Fleet, 0, scanClones, day3-scanPreloadDays, day3-1), scanPreloadBatch)
	if si.trickle, err = EncodeJSON(DayMajor(in.Fleet, 0, scanClones, day3, day3), scanTrickleBatch); err != nil {
		return nil, err
	}
	return si, nil
}

// trickleOps schedules as many trickle batches as fall due within the
// window at a fixed spacing: a steady stream, as collectors send it.
func trickleOps(s *Schedule, window time.Duration) []Op {
	gap := time.Duration(float64(time.Second) / scanTrickleRate)
	var ops []Op
	for i := range s.Bodies {
		due := time.Duration(i) * gap
		if due >= window {
			break
		}
		ops = append(ops, Op{Kind: OpIngestJSON, Due: due, Body: s.Bodies[i],
			Recs: s.Starts[i+1] - s.Starts[i], Batch: i})
	}
	return ops
}

// scanTrial is one trial's extra measurements beside serveTrial.
type scanTrial struct {
	serveTrial
	gen GenReport
}

func runFleetScan(ctx context.Context, env *Env, cfg RunConfig) (*Outcome, error) {
	o := newOutcome("fleet_scan", cfg.Trace)
	window := cfg.window(scanTrials)
	var watch, trickle []Latencies
	var ts []scanTrial
	var si *scanInputs
	for i := 0; i < cfg.trials(scanTrials); i++ {
		t0 := time.Now()
		var err error
		if si, err = buildScanInputs(cfg.Seed, env.Dir); err != nil {
			return nil, err
		}
		t, w, tr, err := fleetScanTrial(ctx, env, cfg, o, si, window, t0)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
		watch = append(watch, w)
		trickle = append(trickle, tr)
		cfg.logf("fleet_scan: trial %d: set-up %.2fs, %d watchlists and %d trickle batches in %.2fs, daemon cpu %.2fs",
			i+1, t.setupS, len(w), len(tr), t.windowS, t.cpuS)
	}
	o.Schedules["preload"] = si.preload.SHA256
	o.Schedules["trickle"] = si.trickle.SHA256

	st := make([]serveTrial, len(ts))
	late := make([]float64, len(ts))
	for i := range ts {
		st[i] = ts[i].serveTrial
		late[i] = ts[i].gen.LateP99MS
	}
	finishServe(o, st)
	o.setLatency("op_p50_ms", "op_tail_ms", watch, scanTailP)
	o.setLatency("e2e.trickle_p50_ms", "e2e.trickle_p95_ms", trickle, scanTrickleTailP)
	o.setMedian("bench.gen_late_p99_ms", "ms", late)
	if cfg.Trace {
		if err := traceFleetScan(ctx, env, cfg, o, si, ts[0], watch[0]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func fleetScanTrial(ctx context.Context, env *Env, cfg RunConfig, o *Outcome, si *scanInputs,
	window time.Duration, setup0 time.Time) (scanTrial, Latencies, Latencies, error) {
	var t scanTrial
	fail := func(err error) (scanTrial, Latencies, Latencies, error) { return t, nil, nil, err }
	walDir, err := env.TempDir("wal")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(walDir)
	d, err := env.Start(ctx, "ssdserved", env.Served, "-model", si.in.ModelPath, "-wal-dir", walDir)
	if err != nil {
		return fail(err)
	}
	defer d.Kill()
	watchConn, trickleConn := NewConn(d.URL), NewConn(d.URL)
	defer watchConn.Close()
	defer trickleConn.Close()

	var pre Tally
	pre.Add(ClosedLoop(ctx, trickleConn, binOps(si.preload), time.Hour))
	o.addTally(&pre)
	sent := NewSent()
	sent.Add(si.preload.Recs)
	before, err := d.Scrape(ctx)
	if err != nil {
		return fail(err)
	}
	if got := before[seriesIngested]; got != float64(len(si.preload.Recs)) {
		o.violate("fleet_scan: preload left %s at %.0f, want %d", seriesIngested, got, len(si.preload.Recs))
	}
	ops := trickleOps(si.trickle, window)
	t.setupS = time.Since(setup0).Seconds()

	probe, err := startCPUProbe(d)
	if err != nil {
		return fail(err)
	}
	stop := make(chan struct{})
	trickled := make(chan []OpResult, 1)
	start := time.Now()
	go func() { trickled <- OpenLoop(ctx, trickleConn, ops, start, stop) }()
	watched := RepeatClosed(ctx, watchConn, Op{Kind: OpWatchlist}, window)
	close(stop)
	trickleRes := <-trickled
	if err := probe.stop(&t.serveTrial); err != nil {
		return fail(err)
	}

	var wt, tt Tally
	wt.Add(watched)
	tt.Add(trickleRes)
	o.addTally(&wt)
	o.addTally(&tt)
	for i := range trickleRes {
		b := trickleRes[i].Op.Batch
		sent.Add(si.trickle.Recs[si.trickle.Starts[b]:si.trickle.Starts[b+1]])
	}
	t.units = float64(len(wt.Lat[OpWatchlist]) * sent.Drives())
	t.gen = JudgeOpenLoop([][]OpResult{trickleRes}, window, scanTrickleTailP)
	judgeGenerator(o, "fleet_scan trickle", t.gen, tt.Lat[OpIngestJSON], scanTrickleTailP)

	after, err := d.Scrape(ctx)
	if err != nil {
		return fail(err)
	}
	checkIngestCounters(o, "fleet_scan", before, after, &tt, sent.Records-len(si.preload.Recs), sent.Drives())
	// The default operating point is usually a short list on a healthy
	// fleet; threshold 0 makes the comparison rank real scores too.
	checkWatchlist(ctx, o, "fleet_scan", d.URL, si.pred, sent, 0.9, 50)
	checkWatchlist(ctx, o, "fleet_scan", d.URL, si.pred, sent, 0, 200)
	if err := d.Stop(); err != nil {
		return fail(fmt.Errorf("%w\n%s", err, d.Log()))
	}
	return t, wt.Lat[OpWatchlist], tt.Lat[OpIngestJSON], nil
}

// loadPredictor reads the served model back the way the daemon does.
func loadPredictor(path string) (*core.Predictor, error) {
	pred, err := core.LoadPredictor(path)
	if err != nil {
		return nil, fmt.Errorf("bench: loading the served model back: %w", err)
	}
	return pred, nil
}

package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"ssdfail/internal/trace"
)

// ingest_direct sizing. The fleet is the base fleet cloned
// ingestClones times (~23k drives); a trial replays its last
// ingestDays days (~0.8 M records) day-major in ingestBatch-record
// binary batches from an empty store, so each trial does the same work
// and ends when the schedule does — or when its window closes,
// whichever is first. A 60-clone fleet was tried first: its ~100 MB
// snapshots, written back to back, made the sandbox disk the
// bottleneck and trials of one run differed by 40%.
const (
	ingestClones = 20
	ingestDays   = 36
	ingestBatch  = 256
	ingestTrials = 4
	ingestTailP  = 99
	// ingestReadShare of the drives are read back after the restart.
	ingestReadShare = 0.01
)

// ingestSchedule builds workload 1's request sequence.
func ingestSchedule(fleet *trace.Fleet) *Schedule {
	last := fleet.Horizon - 1
	return EncodeBin(DayMajor(fleet, 0, ingestClones, last-ingestDays+1, last), ingestBatch)
}

func binOps(s *Schedule) []Op {
	ops := make([]Op, len(s.Bodies))
	for i, body := range s.Bodies {
		ops[i] = Op{Kind: OpIngestBin, Body: body, Recs: s.Starts[i+1] - s.Starts[i], Batch: i}
	}
	return ops
}

// ingestTrial is one trial's extra measurements beside serveTrial.
type ingestTrial struct {
	serveTrial
	recoverS            float64
	fsyncs, snaps, shed float64
}

func runIngestDirect(ctx context.Context, env *Env, cfg RunConfig) (*Outcome, error) {
	o := newOutcome("ingest_direct", cfg.Trace)
	window := cfg.window(ingestTrials)
	var lat []Latencies
	var ts []ingestTrial
	var in *Inputs
	var sched *Schedule
	for i := 0; i < cfg.trials(ingestTrials); i++ {
		// Every trial sets up from nothing, inputs included, so that
		// set-up is measured as often as everything else.
		t0 := time.Now()
		var err error
		if in, err = BuildInputs(cfg.Seed, env.Dir); err != nil {
			return nil, err
		}
		sched = ingestSchedule(in.Fleet)
		ops := binOps(sched)
		t, l, err := ingestDirectTrial(ctx, env, cfg, o, in, sched, ops, window, t0)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
		lat = append(lat, l)
		cfg.logf("ingest_direct: trial %d: set-up %.2fs, %.0f records in %.2fs, daemon cpu %.2fs, recover %.2fs",
			i+1, t.setupS, t.units, t.windowS, t.cpuS, t.recoverS)
	}
	o.Schedules["ingest"] = sched.SHA256

	st := make([]serveTrial, len(ts))
	rec := make([]float64, len(ts))
	for i := range ts {
		st[i] = ts[i].serveTrial
		rec[i] = ts[i].recoverS
	}
	finishServe(o, st)
	o.setLatency("op_p50_ms", "op_tail_ms", lat, ingestTailP)
	o.setMedian("e2e.recover_s", "s", rec)
	if cfg.Trace {
		if err := traceIngestDirect(ctx, env, cfg, o, in, sched, ts[0], lat[0]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ingestDirectTrial runs one trial: a fresh daemon at its defaults on a
// fresh WAL directory, the closed-loop replay, the counter checks, and
// the stop/restart that measures recovery. setup0 is when the trial's
// set-up began.
func ingestDirectTrial(ctx context.Context, env *Env, cfg RunConfig, o *Outcome, in *Inputs,
	sched *Schedule, ops []Op, window time.Duration, setup0 time.Time) (ingestTrial, Latencies, error) {
	var t ingestTrial
	walDir, err := env.TempDir("wal")
	if err != nil {
		return t, nil, err
	}
	defer os.RemoveAll(walDir)
	args := []string{"-model", in.ModelPath, "-wal-dir", walDir}
	d, err := env.Start(ctx, "ssdserved", env.Served, args...)
	if err != nil {
		return t, nil, err
	}
	defer d.Kill()
	before, err := d.Scrape(ctx)
	if err != nil {
		return t, nil, err
	}
	conn := NewConn(d.URL)
	defer conn.Close()
	t.setupS = time.Since(setup0).Seconds()

	probe, err := startCPUProbe(d)
	if err != nil {
		return t, nil, err
	}
	results := ClosedLoop(ctx, conn, ops, window)
	if err := probe.stop(&t.serveTrial); err != nil {
		return t, nil, err
	}

	var tally Tally
	tally.Add(results)
	o.addTally(&tally)
	t.units = float64(tally.Accepted)
	sent := NewSent()
	for i := range results {
		b := results[i].Op.Batch
		sent.Add(sched.Recs[sched.Starts[b]:sched.Starts[b+1]])
	}
	after, err := d.Scrape(ctx)
	if err != nil {
		return t, nil, err
	}
	checkIngestCounters(o, "ingest_direct", before, after, &tally, sent.Records, sent.Drives())
	t.fsyncs = after["ssdserved_wal_fsyncs_total"] - before["ssdserved_wal_fsyncs_total"]
	t.snaps = after["ssdserved_wal_snapshots_total"] - before["ssdserved_wal_snapshots_total"]
	t.shed = after[`ssdserved_load_shed_total{handler="ingest_bin"}`]

	// Graceful stop, restart on the same WAL directory, and wait until
	// the daemon is ready with the whole fleet back.
	wantDrives, wantRecords := after[seriesDrives], after[seriesRecords]
	rec0 := time.Now()
	if err := d.Stop(); err != nil {
		return t, nil, fmt.Errorf("%w\n%s", err, d.Log())
	}
	d2, err := env.Start(ctx, "ssdserved-restarted", env.Served, args...)
	if err != nil {
		return t, nil, err
	}
	defer d2.Kill()
	if err := d2.WaitReady(ctx, func(h Health) bool { return h.Drives == int(wantDrives) }); err != nil {
		o.violate("ingest_direct: after restart: %v", err)
	}
	t.recoverS = time.Since(rec0).Seconds()
	restarted, err := d2.Scrape(ctx)
	if err != nil {
		return t, nil, err
	}
	if restarted[seriesDrives] != wantDrives || restarted[seriesRecords] != wantRecords {
		o.violate("ingest_direct: after restart %0.f drives %.0f records, before stop %.0f and %.0f",
			restarted[seriesDrives], restarted[seriesRecords], wantDrives, wantRecords)
	}
	checkDriveReads(ctx, o, "ingest_direct after restart", d2.URL, sent,
		sampleDrives(sent, ingestReadShare, subSeed(cfg.Seed, "ingest/readback")))
	if err := d2.Stop(); err != nil {
		return t, nil, fmt.Errorf("%w\n%s", err, d2.Log())
	}

	lat := tally.Lat[OpIngestBin]
	return t, lat, nil
}

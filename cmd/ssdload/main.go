// Command ssdload drives deterministic load against a running ssdserved
// and verifies end-to-end conformance. It replays the tail of a seeded
// fleetsim fleet over HTTP — closed-loop (fixed concurrency) or
// open-loop (fixed arrival rate) — measures per-endpoint latency
// distributions, and writes a machine-readable report (BENCH_serve.json
// by default).
//
// Two invocations with the same flags produce byte-identical request
// schedules (the report carries the schedule's SHA-256 as proof), so
// benchmark numbers are comparable across runs, machines, and commits.
//
// With -conformance (the default) the harness additionally checks, after
// the load completes, that the daemon's state exactly explains the
// driven load: every replayed drive is present, current, and scoreable;
// /metrics counters advanced by exactly the client's own books
// (accepted + shed + rejected, per handler and status code); and a
// mid-run hot model swap was only ever observed monotonically. Any
// violation exits nonzero.
//
// Usage:
//
//	ssdload -addr http://127.0.0.1:8377 -seed 1 -mode closed -streams 4
//
// Exit codes: 0 success, 1 run or flag error, 2 conformance violation
// or degenerate measurements.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"ssdfail/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr  = flag.String("addr", "http://127.0.0.1:8377", "base URL of the ssdserved daemon")
		seed  = flag.Uint64("seed", 1, "seed for the fleet, probe placement, and arrival times")
		mode  = flag.String("mode", "closed", "pacing mode: closed (fixed concurrency) or open (fixed arrival rate)")
		strms = flag.Int("streams", 4, "concurrent request streams")
		rate  = flag.Float64("rate", 200, "open-loop offered load per stream, requests/sec")

		drives  = flag.Int("drives", 24, "fleet drives per model (3 models)")
		horizon = flag.Int("horizon", 365, "fleet trace horizon, days (>= 90)")
		days    = flag.Int("days", 30, "replay window: ingest the last N days of the trace")
		batch   = flag.Int("batch", 16, "records per ingest batch")
		probe   = flag.Int("probe-every", 8, "interleave one read probe every N batches")
		reload  = flag.Bool("reload-mid-run", true, "hot-swap the model at the midpoint of stream 0")
		wire    = flag.String("wire", "json", "ingest wire format: json (POST /v1/ingest/batch) or binary (POST /v1/ingest/bin)")
		remedy  = flag.Int("remedy-every", 0,
			"interleave one remediation evaluation (POST /v1/remedy/evaluate) every N batches on stream 0 (0 = none)")
		driftMult = flag.Float64("drift-mult", 0,
			"inject a mid-run distribution shift: a second fleet cohort at this write-scale multiple (0 = off)")
		driftAfter = flag.Float64("drift-after", 0.5,
			"fraction of the replay window after which the drift cohort comes online")
		driftDrives = flag.Int("drift-drives", 0,
			"drift cohort drives per model (0 = same as -drives)")
		hazardMult = flag.Float64("hazard-mult", 0,
			"scale fleet failure hazards so short replay windows carry labeled failures (0 = calibrated rates)")

		offset = flag.Uint("drive-offset", 0,
			"shift replayed drive IDs; use a fresh offset per run against a long-lived daemon")

		duration  = flag.Duration("duration", 0, "abort the run after this long (0 = no limit)")
		out       = flag.String("out", "BENCH_serve.json", "report output path (empty = don't write)")
		conform   = flag.Bool("conformance", true, "verify daemon state and metrics accounting after the run")
		buildOnly = flag.Bool("build-only", false, "build the schedule, print its hash, and exit (no daemon needed)")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Seed:           *seed,
		Mode:           loadgen.Mode(*mode),
		Streams:        *strms,
		DrivesPerModel: *drives,
		HorizonDays:    int32(*horizon),
		Days:           int32(*days),
		BatchSize:      *batch,
		ProbeEvery:     *probe,
		RatePerStream:  *rate,
		ReloadMidRun:   *reload,
		RemedyEvery:    *remedy,
		DriveIDOffset:  uint32(*offset),
		Wire:           *wire,

		DriftWriteMult:      *driftMult,
		DriftAfterFrac:      *driftAfter,
		DriftDrivesPerModel: *driftDrives,
		HazardMult:          *hazardMult,
	}
	sched, err := loadgen.Build(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdload: %v\n", err)
		return 1
	}
	fmt.Printf("schedule: %d requests, %d records, %d drives, %d streams, sha256 %s\n",
		sched.TotalRequests, sched.TotalRecords, len(sched.Drives), len(sched.Streams), sched.Hash)
	if *buildOnly {
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	runner := &loadgen.Runner{BaseURL: *addr}
	res, err := runner.Run(ctx, sched)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdload: run: %v\n", err)
		return 1
	}
	fmt.Printf("run: %d requests in %v (%.0f req/s, %.0f rec/s accepted)\n",
		res.Requests, res.Wall.Round(time.Millisecond),
		float64(res.Requests)/res.Wall.Seconds(),
		float64(res.AcceptedRecords)/res.Wall.Seconds())

	var violations []string
	if *conform {
		violations, err = runner.Verify(ctx, res, loadgen.VerifyOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssdload: conformance: %v\n", err)
			return 1
		}
	}

	rep := loadgen.NewReport(res, violations, *conform)
	printEndpoints(rep)
	if *out != "" {
		data, err := rep.MarshalIndent()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssdload: encoding report: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ssdload: writing report: %v\n", err)
			return 1
		}
		fmt.Printf("report: %s\n", *out)
	}

	exit := 0
	if *conform {
		if len(violations) == 0 {
			fmt.Printf("conformance: PASS (%d drives verified, %d reloads, %d watchlists)\n",
				rep.Conformance.DrivesVerified, rep.Reloads, rep.Watchlists)
		} else {
			fmt.Printf("conformance: FAIL (%d violations)\n", len(violations))
			for _, viol := range violations {
				fmt.Printf("  - %s\n", viol)
			}
			exit = 2
		}
		// A benchmark whose latency quantiles collapsed to zero is not a
		// measurement; refuse to bless it.
		ingestName := "ingest_batch"
		if sched.Cfg.Wire == loadgen.WireBinary {
			ingestName = "ingest_bin"
		}
		q := rep.Endpoints[ingestName]
		if q.Count == 0 || q.P50 <= 0 || q.P99 <= 0 || q.P999 <= 0 {
			fmt.Printf("conformance: FAIL: degenerate ingest latency quantiles (%s)\n", q)
			exit = 2
		}
	}
	return exit
}

// printEndpoints renders per-endpoint latency summaries, stably ordered.
func printEndpoints(rep *loadgen.Report) {
	names := make([]string, 0, len(rep.Endpoints))
	for name := range rep.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-13s %s\n", name, rep.Endpoints[name])
	}
}

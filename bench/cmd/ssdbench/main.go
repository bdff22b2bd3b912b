// Command ssdbench is the repository's benchmark. It builds
// cmd/ssdserved and cmd/ssdrouter, drives them as child processes
// through four seeded workloads (the training grid runs in-process),
// checks their outputs against reference computations, and prints every
// metric by name with its unit and sample count.
//
// Run from the repository root:
//
//	go run ./bench/cmd/ssdbench -seed 1 -out result.json
//	    every workload: the end-to-end pass, then the traced pass
//	go run ./bench/cmd/ssdbench --workload fleet_scan --seed 1 --seconds 16 --trace 0
//	    one pass of one workload, as BENCHMARK.json's driver runs it; the
//	    last line of standard output is the result as one JSON object
//	go run ./bench/cmd/ssdbench -compare old.json new.json
//	    per workload × metric: better / worse / same / unresolved
//
// It exits non-zero when an operation failed, a correctness check did
// not hold, an open-loop run was invalid, or a workload ran past its
// wall-clock cap. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssdfail/bench"
)

// passCap is the wall-clock cap on one pass of one workload; the driver
// allows a run 180 s.
const passCap = 150 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run one pass of this workload and print the driver's JSON line (default: every workload, both passes)")
		seed     = flag.Uint64("seed", 1, "derives the fleets, the served model, open-loop arrival times, probe targets and the grid seed")
		seconds  = flag.Float64("seconds", 16, "measuring time of one pass, split over its trials")
		traceArg = flag.Int("trace", 0, "with -workload: 0 runs the end-to-end pass, 1 the traced pass")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file, one JSON object per line")
		out      = flag.String("out", "", "write a result file (for -compare) here")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
		force    = flag.Bool("force", false, "with -compare: compare results from hosts that differ")
		specPath = flag.String("benchmark", "BENCHMARK.json", "with -compare: the file holding bounds and directions")
	)
	flag.Parse()
	if *compare {
		return runCompare(*specPath, flag.Args(), *force)
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "ssdbench: unexpected arguments %v\n", flag.Args())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := bench.NewEnv(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
		return 1
	}
	defer env.Close()
	fmt.Fprintf(os.Stderr, "ssdbench: daemons built in %.2fs; scratch %s (%s)\n", env.BuildS, env.Dir, env.WALFS)

	cfg := bench.RunConfig{Seed: *seed, Seconds: *seconds, TraceOut: *traceOut, Log: os.Stderr}
	if *workload != "" {
		w, ok := bench.FindWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "ssdbench: unknown workload %q\n", *workload)
			return 2
		}
		cfg.Trace = *traceArg == 1
		o, err := runPass(ctx, env, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssdbench: %s: %v\n", w.Name, err)
			return 1
		}
		fmt.Fprint(os.Stderr, o.Report())
		if err := printDriverLine(o); err != nil {
			fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
			return 1
		}
		if !o.Correct() {
			return 1
		}
		return 0
	}

	res := &bench.Result{Seed: *seed, Seconds: *seconds, Host: bench.Host(env)}
	code := 0
	for _, w := range bench.Workloads {
		wr := bench.WorkloadResult{Name: w.Name}
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			o, err := runPass(ctx, env, w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ssdbench: %s: %v\n", w.Name, err)
				return 1
			}
			fmt.Print(o.Report())
			if !o.Correct() {
				code = 1
			}
			if traced {
				wr.Traced = o
			} else {
				wr.Plain = o
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if *out != "" {
		if err := res.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
			return 1
		}
	}
	return code
}

// runPass runs one pass under the wall-clock cap. A pass that overruns
// is not waited for: the scratch directory and every daemon are cleaned
// up and the process exits, loudly.
func runPass(ctx context.Context, env *bench.Env, w bench.Workload, cfg bench.RunConfig) (*bench.Outcome, error) {
	watchdog := time.AfterFunc(passCap, func() {
		fmt.Fprintf(os.Stderr, "ssdbench: %s ran past its %v wall-clock cap; giving up\n", w.Name, passCap)
		env.Close()
		os.Exit(3)
	})
	defer watchdog.Stop()
	return w.Run(ctx, env, cfg)
}

// printDriverLine prints the pass's result as the one JSON object
// BENCHMARK.json's contract asks for: every end-to-end metric after an
// end-to-end pass, every per-layer metric after a traced one.
func printDriverLine(o *bench.Outcome) error {
	defs := bench.EndToEnd
	if o.Traced {
		defs = bench.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := o.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", o.Workload, d.Name)
		}
		metrics[d.Name] = value{m.Value, d.Unit}
	}
	attempted := o.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.Correct(),
		"attempted": attempted,
		"failed":    o.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func runCompare(specPath string, files []string, force bool) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "ssdbench: -compare takes exactly two result files")
		return 2
	}
	spec, err := bench.ReadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
		return 2
	}
	old, err := bench.ReadResult(files[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
		return 2
	}
	cur, err := bench.ReadResult(files[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
		return 2
	}
	rows, err := bench.Compare(spec, old, cur, force)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdbench: %v\n", err)
		return 2
	}
	if old.Seed != cur.Seed {
		fmt.Printf("note: seeds differ (%d vs %d); the inputs are not the same\n", old.Seed, cur.Seed)
	}
	if worse := bench.PrintRows(os.Stdout, rows); worse > 0 {
		fmt.Printf("%d of %d rows read worse\n", worse, len(rows))
		return 1
	}
	return 0
}

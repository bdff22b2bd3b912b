// Command ssdpredict runs the paper's failure-prediction study
// (Section 5: Tables 6–8 and Figures 12–16) on a simulated or loaded
// fleet trace.
//
// Usage:
//
//	ssdpredict [-trace fleet.bin] [-drives 300] [-what table6,fig12,...]
//	ssdpredict [-trace fleet.bin] [-drives 300] [-trees 100] -save pred.bin
//
// The -what flag selects experiments (comma-separated); "all" (the
// default) runs everything. Table 6 is the most expensive (six models x
// four lookaheads x k folds).
//
// With -save, it runs no experiment and writes the serving predictor
// that ssdserved -model loads instead; the same options write the same
// bytes at any -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/experiments"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/report"
	"ssdfail/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "binary trace file (empty = simulate)")
		seed      = flag.Uint64("seed", 42, "simulation seed when no trace is given")
		drives    = flag.Int("drives", 300, "drives per model when simulating")
		horizon   = flag.Int("horizon", 2190, "horizon in days when simulating")
		folds     = flag.Int("folds", 5, "cross-validation folds")
		treesN    = flag.Int("trees", 100, "random forest size")
		what      = flag.String("what", "all", "comma-separated: table6,table7,table8,fig12,fig13,fig14,fig15,fig16,grid,ablations")
		plots     = flag.Bool("plots", true, "render ASCII plots alongside tables")
		workers   = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		save      = flag.String("save", "", "train the serving predictor, write it to this path, and run no experiment")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.DrivesPerModel = *drives
	cfg.HorizonDays = int32(*horizon)
	cfg.CVFolds = *folds
	cfg.ForestTrees = *treesN
	cfg.Workers = *workers

	ctx, err := buildContext(cfg, *tracePath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fleet: %d drives, %d drive-days, %d swap events\n\n",
		len(ctx.Fleet.Drives), ctx.Fleet.DriveDays(), len(ctx.An.Events))
	if *save != "" {
		if err := saveModel(ctx, *save); err != nil {
			fatal(err)
		}
		return
	}

	want := map[string]bool{}
	for _, w := range strings.Split(*what, ",") {
		want[strings.TrimSpace(w)] = true
	}
	all := want["all"]
	show := func(tbl *report.Table, plot *report.Plot) {
		fmt.Println(tbl.String())
		if *plots && plot != nil {
			plot.Render(os.Stdout, 64, 14)
			fmt.Println()
		}
	}
	timed := func(name string, run func() error) {
		start := time.Now()
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "ssdpredict: %s: %v\n", name, err)
			return
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if all || want["table6"] {
		timed("table6", func() error {
			tbl, _, err := experiments.Table6(ctx)
			if err != nil {
				return err
			}
			show(tbl, nil)
			return nil
		})
	}
	if all || want["fig12"] {
		timed("fig12", func() error {
			tbl, plot, err := experiments.Figure12(ctx)
			if err != nil {
				return err
			}
			show(tbl, plot)
			return nil
		})
	}

	// Figures 13–15 share one pooled cross-validation run.
	if all || want["fig13"] || want["fig14"] || want["fig15"] {
		timed("fig13-15", func() error {
			ps, err := ctx.PooledCV(1)
			if err != nil {
				return err
			}
			if all || want["fig13"] {
				show(experiments.Figure13(ctx, ps))
			}
			if all || want["fig14"] {
				show(experiments.Figure14(ctx, ps))
			}
			if all || want["fig15"] {
				tbl, plot, err := experiments.Figure15(ctx, ps)
				if err != nil {
					return err
				}
				show(tbl, plot)
			}
			return nil
		})
	}
	if all || want["fig16"] {
		timed("fig16", func() error {
			tbl, err := experiments.Figure16(ctx)
			if err != nil {
				return err
			}
			show(tbl, nil)
			return nil
		})
	}
	if all || want["table7"] {
		timed("table7", func() error {
			tbl, err := experiments.Table7(ctx)
			if err != nil {
				return err
			}
			show(tbl, nil)
			return nil
		})
	}
	if all || want["table8"] {
		timed("table8", func() error {
			tbl, err := experiments.Table8(ctx)
			if err != nil {
				return err
			}
			show(tbl, nil)
			return nil
		})
	}
	if all || want["ablations"] {
		timed("ablations", func() error {
			for _, run := range []func(*experiments.Context) (*report.Table, error){
				experiments.AblationSplit,
				experiments.AblationDownsampling,
				experiments.AblationFeatureSets,
				experiments.AblationForestSize,
			} {
				tbl, err := run(ctx)
				if err != nil {
					return err
				}
				show(tbl, nil)
			}
			return nil
		})
	}
	if all || want["grid"] {
		timed("grid", func() error {
			tbl, err := experiments.HyperparameterGrid(ctx)
			if err != nil {
				return err
			}
			show(tbl, nil)
			return nil
		})
	}
}

// saveModel trains the serving predictor on the context's fleet — a
// random forest predicting failure within 3 days, with a quarter of the
// drives held out for its validation AUC — and writes it to path.
func saveModel(ctx *experiments.Context, path string) error {
	fcfg := forest.DefaultConfig()
	fcfg.Trees, fcfg.Seed, fcfg.Workers = ctx.Cfg.ForestTrees, ctx.Cfg.Seed, ctx.Cfg.Workers
	study := &core.Study{Fleet: ctx.Fleet, Analysis: ctx.An}
	pred, err := study.TrainPredictor(core.PredictorOptions{
		Lookahead: 3, Factory: forest.NewFactory(fcfg), Seed: ctx.Cfg.Seed,
		Workers: ctx.Cfg.Workers, HoldoutFraction: 0.25,
	})
	if err != nil {
		return err
	}
	if err := pred.Save(path); err != nil {
		return err
	}
	fmt.Printf("model saved to %s (validation AUC %.3f)\n", path, pred.ValidationAUC)
	return nil
}

func buildContext(cfg experiments.Config, tracePath string) (*experiments.Context, error) {
	if tracePath == "" {
		return experiments.NewContext(cfg)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fleet, err := trace.ReadBinary(f)
	if err != nil {
		return nil, err
	}
	return experiments.NewContextFromFleet(cfg, fleet)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssdpredict:", err)
	os.Exit(1)
}

package bench

import (
	"bytes"
	"context"
	"os"
	"time"

	"ssdfail/internal/experiments"
	"ssdfail/internal/expgrid"
)

// train_grid sizing: the Table 6 grid — six classifiers × lookaheads 1
// and 7 × five drive-partitioned folds, 60 tasks — on a fleet of
// gridDrivesPerModel drives per model over the simulator's default
// six-year horizon, with the grid's default matrix cache and one task
// per CPU. Every trial generates the fleet afresh (its set-up) and runs
// the whole grid; a trial is a fixed amount of work, so the number of
// trials, not their length, is what the measuring time buys.
const (
	gridDrivesPerModel = 150
	gridFolds          = 5
	gridForestTrees    = 50
	gridTestNegProb    = 0.2
	gridTrials         = 4
	// gridMinForestAUC is the least mean AUC the random forest must
	// reach at lookahead 1 for the grid's output to count as correct. At
	// 400 drives per model the forest stays above 0.80; on this smaller
	// fleet a seed in twelve dips just under it (0.799), so the floor
	// sits lower: it is there to catch a grid that has stopped learning,
	// not to grade the model.
	gridMinForestAUC = 0.70
)

var gridLookaheads = []int{1, 7}

// gridFleetSeed is the simulator seed of the grid's fleet, whatever seed
// the run was given: the number of failures in a fleet this small
// differs by ±15% between seeds, k-NN's scoring cost follows it, and
// the grid's wall time differed by ±12% between seeds with it. The
// run's seed is the grid's own seed — fold assignment, training
// downsampling, every classifier's initialisation.
const gridFleetSeed = 1

func gridConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = gridFleetSeed
	cfg.DrivesPerModel = gridDrivesPerModel
	cfg.CVFolds = gridFolds
	cfg.ForestTrees = gridForestTrees
	cfg.TestNegSampleProb = gridTestNegProb
	cfg.Workers = nproc()
	return cfg
}

// gridTrial is what one grid run measured.
type gridTrial struct {
	setupS float64
	wallS  float64
	cpuS   float64
	rssMB  float64
	res    *expgrid.Result
	ctx    *experiments.Context
}

// runGrid generates the fleet and runs the grid once. wrap, when
// non-nil, edits the spec before it runs (the traced pass decorates the
// classifiers).
func runGrid(seed uint64, wrap func(*expgrid.Spec)) (gridTrial, error) {
	var t gridTrial
	t0 := time.Now()
	ectx, err := experiments.NewContext(gridConfig())
	if err != nil {
		return t, err
	}
	spec := ectx.GridSpec(gridLookaheads...)
	spec.Seed = subSeed(seed, "grid")
	if wrap != nil {
		wrap(&spec)
	}
	t.ctx = ectx
	t.setupS = time.Since(t0).Seconds()

	cpu0, t1 := SelfCPU(), time.Now()
	t.res, err = expgrid.Run(spec)
	t.wallS = time.Since(t1).Seconds()
	t.cpuS = SelfCPU() - cpu0
	if err != nil {
		return t, err
	}
	t.rssMB, err = ProcRSSMB(os.Getpid(), false)
	return t, err
}

// checkGrid counts the grid's tasks as operations and holds its output
// against the reference table (nil for the first run, which becomes the
// reference) and the forest's AUC floor.
func checkGrid(o *Outcome, res *expgrid.Result, reference []byte) []byte {
	o.Attempted += len(res.Tasks)
	for i := range res.Tasks {
		if e := res.Tasks[i].Error; e != "" {
			o.fail("train_grid: task %s: %s", res.Tasks[i].Key, e)
		}
	}
	table := res.AUCTable()
	if reference != nil && !bytes.Equal(table, reference) {
		o.violate("train_grid: AUC table differs from the first run's: the grid is not deterministic")
	}
	if aucs, ok := res.Cell("all", "Random Forest", 1); !ok {
		o.violate("train_grid: no Random Forest N=1 cell in the result")
	} else {
		var mean float64
		for _, a := range aucs {
			mean += a / float64(len(aucs))
		}
		if mean < gridMinForestAUC {
			o.violate("train_grid: Random Forest N=1 mean AUC %.3f is below %.2f", mean, gridMinForestAUC)
		}
	}
	return table
}

func runTrainGrid(ctx context.Context, env *Env, cfg RunConfig) (*Outcome, error) {
	o := newOutcome("train_grid", cfg.Trace)
	trials := gridTrials
	if cfg.Trace {
		trials = 1
	}
	var ts []gridTrial
	var table []byte
	for i := 0; i < trials && ctx.Err() == nil; i++ {
		t, err := runGrid(cfg.Seed, nil)
		if err != nil {
			return nil, err
		}
		table = checkGrid(o, t.res, table)
		ts = append(ts, t)
		cfg.logf("train_grid: trial %d: %d tasks in %.2fs (set-up %.2fs, cpu %.2fs)",
			i+1, len(t.res.Tasks), t.wallS, t.setupS, t.cpuS)
	}

	n := len(ts)
	setup, rate, cpu, rss, wallMS := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make(Latencies, n)
	for i, t := range ts {
		tasks := float64(len(t.res.Tasks))
		setup[i] = t.setupS
		rate[i] = tasks / t.wallS
		cpu[i] = t.cpuS / tasks * 1e6
		rss[i] = t.rssMB
		wallMS[i] = t.wallS * 1e3
	}
	o.Trials = n
	o.setMedian("setup_s", "s", setup)
	o.setMedian("units_per_s", "1/s", rate)
	o.setMedian("cpu_us_per_unit", "us", cpu)
	o.setMedian("rss_mb", "MB", rss)
	// The operation is a whole grid run. A handful of runs supports no
	// percentile beyond the median; the tail reported is the nearest-rank
	// 75th — of four runs the third fastest — which one slow run cannot
	// move the way it moves the maximum.
	o.setMedian("op_p50_ms", "ms", wallMS)
	o.Metrics["op_tail_ms"] = Metric{Value: Percentile(sortedCopy(wallMS), 75), Unit: "ms", N: n, Trials: wallMS}
	if cfg.Trace {
		if err := traceTrainGrid(cfg, env, o, ts[0], table); err != nil {
			return nil, err
		}
	}
	return o, nil
}

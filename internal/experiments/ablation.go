package experiments

import (
	"fmt"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/report"
)

// Ablations for the design choices called out in DESIGN.md §6. These are
// not paper tables; they justify the methodology the paper (and this
// reproduction) uses. Each one is Table 6's forest grid with one thing
// changed, so it shares the engine's seed contract: an unchanged cell is
// Table 6's cell bit for bit.

// AblationSplit contrasts drive-partitioned folds with naive row-level
// splits. Because a drive's days are highly correlated, row splits leak
// drive identity across train/test and inflate the AUC — the reason the
// paper partitions folds by drive ID (§5.1). The effect is measured at
// N=7, where each failure contributes several positive days that a row
// split scatters across train and test.
func AblationSplit(ctx *Context) (*report.Table, error) {
	const lookahead = 7
	// Drive-partitioned baseline.
	driveRes, err := forestCV(ctx.forestGrid(lookahead), lookahead)
	if err != nil {
		return nil, err
	}
	// Row-level split: extract everything once, then split rows round-
	// robin regardless of drive.
	full := dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{
		Lookahead:          lookahead,
		Seed:               ctx.Cfg.Seed,
		NegativeSampleProb: ctx.Cfg.TestNegSampleProb,
		AgeMax:             -1,
	})
	folds := ctx.Cfg.CVFolds
	var aucs []float64
	for k := 0; k < folds; k++ {
		var trainRows, testRows []int
		for i := 0; i < full.Len(); i++ {
			if i%folds == k {
				testRows = append(testRows, i)
			} else {
				trainRows = append(trainRows, i)
			}
		}
		train := dataset.Downsample(full.Subset(trainRows), 1, ctx.Cfg.Seed+uint64(k))
		test := full.Subset(testRows)
		if train.Positives() == 0 || test.Positives() == 0 {
			continue
		}
		clf := ctx.forestSpec()[0].New(ctx.Cfg.Seed)
		if err := clf.Fit(train); err != nil {
			return nil, err
		}
		aucs = append(aucs, eval.AUC(ml.ScoreBatch(clf, test), test.Y))
	}
	tbl := &report.Table{
		Title:   "Ablation: fold partitioning (random forest, N=7)",
		Columns: []string{"Partitioning", "AUC"},
	}
	tbl.AddRow("by drive ID (paper)", report.F(driveRes.Mean, 3))
	tbl.AddRow("by row (leaky)", report.F(eval.Summarize(aucs).Mean, 3))
	tbl.Notes = append(tbl.Notes,
		"row-level splits leak per-drive signal into the test set and overstate accuracy")
	return tbl, nil
}

// downsampleSpec is the N=1 forest grid trained at ratio negatives per
// positive.
func (ctx *Context) downsampleSpec(ratio float64) expgrid.Spec {
	spec := ctx.forestGrid(1)
	spec.DownsampleRatio = ratio
	return spec
}

// AblationDownsampling sweeps the training negative:positive ratio
// (the paper settles on 1:1 after testing alternatives, §5.1).
func AblationDownsampling(ctx *Context) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "Ablation: training downsampling ratio (random forest, N=1)",
		Columns: []string{"Negatives per positive", "AUC", "std"},
	}
	for _, ratio := range []float64{0.5, 1, 2, 5, 20} {
		r, err := forestCV(ctx.downsampleSpec(ratio), 1)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%g:1", ratio), report.F(r.Mean, 3), report.F(r.Std, 3))
	}
	tbl.Notes = append(tbl.Notes, "paper: ratios beyond 1:1 gave miniscule gains or losses")
	return tbl, nil
}

// maskedFactory wraps a factory so that only the selected features are
// visible to the model (others are zeroed before fit and score).
type maskedModel struct {
	inner ml.Classifier
	keep  []bool
}

func (m *maskedModel) Name() string { return m.inner.Name() + " (masked)" }

func (m *maskedModel) mask(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if m.keep[i] {
			out[i] = v
		}
	}
	return out
}

func (m *maskedModel) Fit(d *dataset.Matrix) error {
	masked := &dataset.Matrix{
		X:        make([]float64, len(d.X)),
		Y:        d.Y,
		DriveIdx: d.DriveIdx,
		Day:      d.Day,
		Age:      d.Age,
	}
	copy(masked.X, d.X)
	for i := 0; i < masked.Len(); i++ {
		row := masked.Row(i)
		for f := range row {
			if !m.keep[f] {
				row[f] = 0
			}
		}
	}
	return m.inner.Fit(masked)
}

func (m *maskedModel) Score(x []float64) float64 { return m.inner.Score(m.mask(x)) }

// featureSet builds a keep-mask from a predicate over feature indices.
func featureSet(pred func(f int) bool) []bool {
	keep := make([]bool, dataset.NumFeatures)
	for f := range keep {
		keep[f] = pred(f)
	}
	return keep
}

// AblationFeatureSets contrasts daily-only, cumulative-only, and
// combined feature vectors (the paper's §5.1 design includes both).
func AblationFeatureSets(ctx *Context) (*report.Table, error) {
	daily := featureSet(func(f int) bool {
		switch {
		case f >= dataset.FErrBase && f < dataset.FCumErrBase:
			return true
		case f == dataset.FReadCount || f == dataset.FWriteCount || f == dataset.FEraseCount:
			return true
		case f == dataset.FBadBlockDelta || f == dataset.FStatusDead || f == dataset.FStatusReadOnly:
			return true
		case f == dataset.FCorrErrRate:
			return true
		}
		return false
	})
	cumulative := featureSet(func(f int) bool {
		switch {
		case f >= dataset.FCumErrBase && f < dataset.FDriveAge:
			return true
		case f == dataset.FCumReadCount || f == dataset.FCumWriteCount || f == dataset.FCumEraseCount:
			return true
		case f == dataset.FPECycles || f == dataset.FCumBadBlockCount || f == dataset.FDriveAge:
			return true
		}
		return false
	})
	rf := ctx.forestSpec()[0]
	masked := func(label string, keep []bool) expgrid.ClassifierSpec {
		return expgrid.ClassifierSpec{Label: label, New: func(seed uint64) ml.Classifier {
			return &maskedModel{inner: rf.New(seed), keep: keep}
		}}
	}
	names := []string{"daily only", "cumulative only", "daily + cumulative (paper)"}
	results, err := ctx.forestSweep([]expgrid.ClassifierSpec{
		masked(names[0], daily), masked(names[1], cumulative), rf,
	})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Ablation: feature sets (random forest, N=1)",
		Columns: []string{"Features", "AUC", "std"},
	}
	for i, r := range results {
		tbl.AddRow(names[i], report.F(r.Mean, 3), report.F(r.Std, 3))
	}
	return tbl, nil
}

// forestVariant is classifierSpecs' forest under its own label with one
// hyperparameter changed.
func (ctx *Context) forestVariant(label string, mod func(*forest.Config)) expgrid.ClassifierSpec {
	trees := ctx.Cfg.ForestTrees
	return expgrid.ClassifierSpec{Label: label, New: func(seed uint64) ml.Classifier {
		cfg := forest.DefaultConfig()
		cfg.Trees = trees
		cfg.Seed = seed
		cfg.Workers = 1
		mod(&cfg)
		return forest.New(cfg)
	}}
}

// forestSweep cross-validates the variants side by side in one N=1 grid
// — one extraction, every variant on the same train rows — and returns
// their summaries in order.
func (ctx *Context) forestSweep(variants []expgrid.ClassifierSpec) ([]eval.Result, error) {
	spec := ctx.forestGrid(1)
	spec.Classifiers = variants
	res, err := runGrid(spec)
	if err != nil {
		return nil, err
	}
	results := make([]eval.Result, len(variants))
	for i, v := range variants {
		if results[i], err = cellSummary(res, "all", v.Label, 1); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// bestMean returns the index of the highest mean AUC; the first of
// equal means wins.
func bestMean(results []eval.Result) int {
	best := 0
	for i, r := range results {
		if r.Mean > results[best].Mean {
			best = i
		}
	}
	return best
}

// HyperparameterGrid demonstrates the paper's §5.2 methodology of grid-
// searching regularization hyperparameters: the random-forest depth is
// swept and the best configuration selected by cross-validated AUC.
func HyperparameterGrid(ctx *Context) (*report.Table, error) {
	depths := []int{4, 8, 14, 20}
	var variants []expgrid.ClassifierSpec
	for _, d := range depths {
		variants = append(variants, ctx.forestVariant(fmt.Sprintf("depth=%d", d),
			func(cfg *forest.Config) { cfg.MaxDepth = d }))
	}
	results, err := ctx.forestSweep(variants)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Grid search: random-forest depth (the paper's tuned regularizer, §5.2)",
		Columns: []string{"Max depth", "AUC", "std", "selected"},
	}
	best := bestMean(results)
	for i, r := range results {
		sel := ""
		if i == best {
			sel = "<- best"
		}
		tbl.AddRow(fmt.Sprintf("%d", depths[i]), report.F(r.Mean, 3), report.F(r.Std, 3), sel)
	}
	return tbl, nil
}

// AblationForestSize sweeps the number of trees and reports AUC only;
// what each size costs is BenchmarkAblationForestSize's to measure.
func AblationForestSize(ctx *Context) (*report.Table, error) {
	sizes := []int{5, 25, 50, 100, 200}
	var variants []expgrid.ClassifierSpec
	for _, trees := range sizes {
		variants = append(variants, ctx.forestVariant(fmt.Sprintf("trees=%d", trees),
			func(cfg *forest.Config) { cfg.Trees = trees }))
	}
	results, err := ctx.forestSweep(variants)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Ablation: forest size (N=1)",
		Columns: []string{"Trees", "AUC", "std"},
	}
	for i, r := range results {
		tbl.AddRow(fmt.Sprintf("%d", sizes[i]), report.F(r.Mean, 3), report.F(r.Std, 3))
	}
	return tbl, nil
}

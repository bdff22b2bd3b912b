package experiments

import (
	"fmt"

	"ssdfail/internal/expgrid"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/gbdt"
	"ssdfail/internal/report"
)

// windowedLookaheads spans the paper's range of N, out to where its
// single-day features degrade.
var windowedLookaheads = []int{1, 7, 15, 30}

// windowedSpec is the forest grid over windowedLookaheads with
// windowDays of trailing-window features (0 = the paper's single day).
func (ctx *Context) windowedSpec(windowDays int32) expgrid.Spec {
	spec := ctx.forestGrid(windowedLookaheads...)
	spec.WindowDays = windowDays
	return spec
}

// ExtensionWindowedFeatures evaluates the repository's extension of the
// paper's stated future work (§7: improving prediction for large
// lookahead N): trailing-window aggregate features give the models a
// short history of each drive instead of a single day, aimed at exactly
// where the paper's single-day features degrade.
func ExtensionWindowedFeatures(ctx *Context) (*report.Table, error) {
	base, err := runGrid(ctx.windowedSpec(0))
	if err != nil {
		return nil, fmt.Errorf("extension (base): %w", err)
	}
	win, err := runGrid(ctx.windowedSpec(7))
	if err != nil {
		return nil, fmt.Errorf("extension (windowed): %w", err)
	}
	tbl := &report.Table{
		Title:   "Extension: trailing-window features vs single-day features (random forest)",
		Columns: []string{"N (days)", "single-day AUC", "windowed (7d) AUC", "delta"},
	}
	for _, n := range windowedLookaheads {
		b, err := cellSummary(base, "all", "Random Forest", n)
		if err != nil {
			return nil, err
		}
		w, err := cellSummary(win, "all", "Random Forest", n)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f ± %.3f", b.Mean, b.Std),
			fmt.Sprintf("%.3f ± %.3f", w.Mean, w.Std),
			report.F(w.Mean-b.Mean, 3))
	}
	tbl.Notes = append(tbl.Notes,
		"extension beyond the paper: §7 names large-N prediction as future work")
	return tbl, nil
}

// gbdtLookaheads are Table 6's shortest and longest windows.
var gbdtLookaheads = []int{1, 7}

// gbdtSpec puts gradient boosting beside the paper's winner in one grid:
// the same folds, the same train rows, seeds derived from the task key
// like every other classifier's.
func (ctx *Context) gbdtSpec() expgrid.Spec {
	spec := ctx.forestGrid(gbdtLookaheads...)
	spec.Classifiers = append(spec.Classifiers, expgrid.ClassifierSpec{
		Label: "Gradient Boosting",
		New: func(seed uint64) ml.Classifier {
			cfg := gbdt.DefaultConfig()
			cfg.Seed = seed
			return gbdt.New(cfg)
		},
	})
	return spec
}

// ExtensionGBDT adds a seventh model beyond the paper's six: gradient-
// boosted trees, the post-2019 default for tabular prediction, compared
// against the paper's winner under the identical protocol.
func ExtensionGBDT(ctx *Context) (*report.Table, error) {
	res, err := runGrid(ctx.gbdtSpec())
	if err != nil {
		return nil, fmt.Errorf("extension gbdt: %w", err)
	}
	tbl := &report.Table{
		Title:   "Extension: gradient boosting vs the paper's best model",
		Columns: []string{"N (days)", "Random Forest AUC", "Gradient Boosting AUC"},
	}
	for _, n := range gbdtLookaheads {
		rf, err := cellSummary(res, "all", "Random Forest", n)
		if err != nil {
			return nil, err
		}
		gb, err := cellSummary(res, "all", "Gradient Boosting", n)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f ± %.3f", rf.Mean, rf.Std),
			fmt.Sprintf("%.3f ± %.3f", gb.Mean, gb.Std))
	}
	tbl.Notes = append(tbl.Notes, "extension beyond the paper's six classifiers")
	return tbl, nil
}

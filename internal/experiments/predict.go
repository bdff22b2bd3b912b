package experiments

import (
	"errors"
	"fmt"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/failure"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/report"
	"ssdfail/internal/trace"
)

// Table6 cross-validates all six classifiers at lookaheads 1, 2, 3, 7
// (paper Table 6) through the expgrid engine and returns the results
// table plus the raw AUC results indexed [model][lookahead].
func Table6(ctx *Context) (*report.Table, map[string][]eval.Result, error) {
	res, err := RunTable6Grid(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("table 6: %w", err)
	}
	tbl := &report.Table{
		Title:   "Table 6: cross-validated ROC AUC per model and lookahead N",
		Columns: []string{"Model", "N=1", "N=2", "N=3", "N=7", "paper N=1", "paper N=7"},
	}
	results := make(map[string][]eval.Result)
	for _, cs := range ctx.classifierSpecs() {
		row := []string{cs.Label}
		var rs []eval.Result
		for _, n := range PaperTable6Lookaheads {
			r, err := cellSummary(res, "all", cs.Label, n)
			if err != nil {
				return nil, nil, fmt.Errorf("table 6: %w", err)
			}
			rs = append(rs, r)
			row = append(row, fmt.Sprintf("%.3f ± %.3f", r.Mean, r.Std))
		}
		ref := PaperTable6[cs.Label]
		row = append(row, report.F(ref[0], 3), report.F(ref[3], 3))
		tbl.AddRow(row...)
		results[cs.Label] = rs
	}
	tbl.Notes = append(tbl.Notes,
		"paper: random forest best at every N; AUC decreases with N for all models")
	return tbl, results, nil
}

// Figure12Lookaheads is the lookahead sweep of paper Figure 12.
var Figure12Lookaheads = []int{1, 2, 3, 5, 7, 10, 15, 20, 30}

// Figure12 sweeps the random-forest AUC over lookahead windows
// (paper Figure 12) as a forest-only engine grid.
func Figure12(ctx *Context) (*report.Table, *report.Plot, error) {
	res, err := runGrid(ctx.forestGrid(Figure12Lookaheads...))
	if err != nil {
		return nil, nil, fmt.Errorf("figure 12: %w", err)
	}
	tbl := &report.Table{
		Title:   "Figure 12: random forest AUC vs lookahead window N",
		Columns: []string{"N", "AUC", "std"},
	}
	plot := &report.Plot{Title: "Figure 12", XLabel: "N (days)", YLabel: "ROC AUC"}
	var s report.Series
	s.Name = "random forest"
	for _, n := range Figure12Lookaheads {
		r, err := cellSummary(res, "all", "Random Forest", n)
		if err != nil {
			return nil, nil, fmt.Errorf("figure 12: %w", err)
		}
		tbl.AddRow(fmt.Sprintf("%d", n), report.F(r.Mean, 3), report.F(r.Std, 3))
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, r.Mean)
	}
	plot.Series = []report.Series{s}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("paper: %.2f at N=1 declining to %.2f at N=30",
			PaperFigure12[1], PaperFigure12[30]))
	return tbl, plot, nil
}

// PooledScores carries out-of-fold test scores pooled across all CV
// folds, with per-row provenance for slicing by model or age.
type PooledScores struct {
	Scores []float64
	Y      []int8
	Ages   []int32
	Models []trace.Model
}

// PooledCV cross-validates the standard random forest through the
// engine and pools test-fold scores in fold order, the raw material for
// Figures 13, 14, and 15 and Table 7's All column.
func (ctx *Context) PooledCV(lookahead int) (*PooledScores, error) {
	spec := ctx.forestGrid(lookahead)
	spec.KeepScores = true
	res, err := runGrid(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: pooled CV: %w", err)
	}
	ps := &PooledScores{}
	for i := range res.Tasks {
		tr := &res.Tasks[i]
		ps.Scores = append(ps.Scores, tr.Scores...)
		ps.Y = append(ps.Y, tr.Y...)
		ps.Ages = append(ps.Ages, tr.Ages...)
		for _, di := range tr.DriveIdx {
			ps.Models = append(ps.Models, ctx.Fleet.Drives[di].Model)
		}
	}
	return ps, nil
}

// filter returns the subset of pooled scores matching keep.
func (ps *PooledScores) filter(keep func(i int) bool) ([]float64, []int8) {
	var s []float64
	var y []int8
	for i := range ps.Scores {
		if keep(i) {
			s = append(s, ps.Scores[i])
			y = append(y, ps.Y[i])
		}
	}
	return s, y
}

// Figure13 evaluates the pooled random-forest scores separately per
// drive model (paper Figure 13) and returns a ROC summary.
func Figure13(ctx *Context, ps *PooledScores) (*report.Table, *report.Plot) {
	tbl := &report.Table{
		Title:   "Figure 13: per-model ROC (random forest, N=1)",
		Columns: []string{"Model", "AUC", "TPR@FPR=0.1", "paper AUC"},
	}
	plot := &report.Plot{Title: "Figure 13", XLabel: "FPR", YLabel: "TPR"}
	for _, m := range trace.Models {
		s, y := ps.filter(func(i int) bool { return ps.Models[i] == m })
		roc := eval.ComputeROC(s, y)
		tbl.AddRow(m.String(), report.F(eval.AUC(s, y), 3),
			report.F(roc.TPRAtFPR(0.1), 3), report.F(PaperFigure13AUC[m.String()], 3))
		var series report.Series
		series.Name = m.String()
		for i := 0; i < len(roc.FPR); i += 1 + len(roc.FPR)/64 {
			series.X = append(series.X, roc.FPR[i])
			series.Y = append(series.Y, roc.TPR[i])
		}
		plot.Series = append(plot.Series, series)
	}
	tbl.Notes = append(tbl.Notes, "paper: nearly identical performance across the three MLC models")
	return tbl, plot
}

// Figure14 computes the true positive rate by drive-age month at three
// conservative probability thresholds (paper Figure 14).
func Figure14(ctx *Context, ps *PooledScores) (*report.Table, *report.Plot) {
	thresholds := []float64{0.85, 0.90, 0.95}
	months := 25
	tbl := &report.Table{
		Title:   "Figure 14: TPR by drive age at conservative thresholds (random forest, N=1)",
		Columns: []string{"Age (months)", "thr 0.85", "thr 0.90", "thr 0.95"},
	}
	plot := &report.Plot{Title: "Figure 14", XLabel: "age (months)", YLabel: "TPR"}
	curves := eval.TPRByAgeMonths(ps.Scores, ps.Y, ps.Ages, thresholds, months)
	for ti, thr := range thresholds {
		var s report.Series
		s.Name = fmt.Sprintf("thr %.2f", thr)
		for m, v := range curves[ti] {
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, v)
		}
		plot.Series = append(plot.Series, s)
	}
	for m := 0; m < months; m += 2 {
		tbl.AddRow(fmt.Sprintf("%d", m),
			report.F(curves[0][m], 3), report.F(curves[1][m], 3), report.F(curves[2][m], 3))
	}
	tbl.Notes = append(tbl.Notes, "paper: TPR is markedly higher for drives under three months old")
	return tbl, plot
}

// Figure15 compares ROC on young vs old rows of the pooled scores, then
// trains fully separate age-partitioned models (paper Figure 15, §5.3).
func Figure15(ctx *Context, ps *PooledScores) (*report.Table, *report.Plot, error) {
	sYoung, yYoung := ps.filter(func(i int) bool { return ps.Ages[i] <= failure.YoungAgeDays })
	sOld, yOld := ps.filter(func(i int) bool { return ps.Ages[i] > failure.YoungAgeDays })
	aucYoung := eval.AUC(sYoung, yYoung)
	aucOld := eval.AUC(sOld, yOld)

	// Separate training per age band: the forest grid with its rows
	// restricted to the band.
	young := ctx.forestGrid(1)
	young.AgeMin, young.AgeMax = 0, failure.YoungAgeDays
	young.Folds = 3 // fewer young positives; keep folds populated
	rYoung, err := forestCV(young, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 15 young split: %w", err)
	}
	old := ctx.forestGrid(1)
	old.AgeMin = failure.YoungAgeDays + 1
	rOld, err := forestCV(old, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 15 old split: %w", err)
	}

	tbl := &report.Table{
		Title:   "Figure 15 / §5.3: young vs old predictability (random forest, N=1)",
		Columns: []string{"Slice", "AUC", "paper"},
	}
	tbl.AddRow("young rows (combined model)", report.F(aucYoung, 3), report.F(PaperFigure15.YoungEval, 3))
	tbl.AddRow("old rows (combined model)", report.F(aucOld, 3), report.F(PaperFigure15.OldEval, 3))
	tbl.AddRow("young (separately trained)",
		fmt.Sprintf("%.3f ± %.3f", rYoung.Mean, rYoung.Std), report.F(PaperFigure15.YoungSplit, 3))
	tbl.AddRow("old (separately trained)",
		fmt.Sprintf("%.3f ± %.3f", rOld.Mean, rOld.Std), report.F(PaperFigure15.OldSplit, 3))
	tbl.Notes = append(tbl.Notes, "paper: young failures are fundamentally more predictable")

	plot := &report.Plot{Title: "Figure 15", XLabel: "FPR", YLabel: "TPR"}
	for _, c := range []struct {
		name string
		s    []float64
		y    []int8
	}{{"young", sYoung, yYoung}, {"old", sOld, yOld}} {
		roc := eval.ComputeROC(c.s, c.y)
		var series report.Series
		series.Name = c.name
		for i := 0; i < len(roc.FPR); i += 1 + len(roc.FPR)/64 {
			series.X = append(series.X, roc.FPR[i])
			series.Y = append(series.Y, roc.TPR[i])
		}
		plot.Series = append(plot.Series, series)
	}
	return tbl, plot, nil
}

// Figure16 trains age-partitioned random forests and reports their top
// feature importances (paper Figure 16).
func Figure16(ctx *Context) (*report.Table, error) {
	names := dataset.FeatureNames()
	trainBand := func(ageMin, ageMax int32) ([]float64, error) {
		train := dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{
			Lookahead: 1,
			Seed:      ctx.Cfg.Seed,
			AgeMin:    ageMin, AgeMax: ageMax,
		})
		train = dataset.Downsample(train, 1, ctx.Cfg.Seed)
		if train.Positives() == 0 {
			return nil, fmt.Errorf("experiments: no positives in age band [%d, %d]", ageMin, ageMax)
		}
		cfg := forest.DefaultConfig()
		cfg.Trees = ctx.Cfg.ForestTrees
		cfg.Seed = ctx.Cfg.Seed
		cfg.Workers = ctx.Cfg.Workers
		f := forest.New(cfg)
		if err := f.Fit(train); err != nil {
			return nil, err
		}
		return f.Importances(), nil
	}
	young, err := trainBand(0, failure.YoungAgeDays)
	if err != nil {
		return nil, err
	}
	old, err := trainBand(failure.YoungAgeDays+1, -1)
	if err != nil {
		return nil, err
	}
	top := func(imp []float64, k int) []int {
		idx := make([]int, len(imp))
		for i := range idx {
			idx[i] = i
		}
		for a := 0; a < k && a < len(idx); a++ {
			best := a
			for b := a + 1; b < len(idx); b++ {
				if imp[idx[b]] > imp[idx[best]] {
					best = b
				}
			}
			idx[a], idx[best] = idx[best], idx[a]
		}
		return idx[:k]
	}
	tbl := &report.Table{
		Title:   "Figure 16: top-10 random forest feature importances, young vs old models",
		Columns: []string{"rank", "young feature", "importance", "old feature", "importance"},
	}
	yTop, oTop := top(young, 10), top(old, 10)
	for r := 0; r < 10; r++ {
		tbl.AddRow(fmt.Sprintf("%d", r+1),
			names[yTop[r]], report.F(young[yTop[r]], 4),
			names[oTop[r]], report.F(old[oTop[r]], 4))
	}
	tbl.Notes = append(tbl.Notes,
		"paper: young models are dominated by drive age and non-transparent error counts; old models by wear-and-tear (read/write/correctable counts)")
	return tbl, nil
}

// Table7 trains a random forest on each model's drives and tests on each
// other model's, plus a final column trained on all drives
// (paper Table 7; diagonal and All-column entries use cross-validation).
func Table7(ctx *Context) (*report.Table, error) {
	tbl := &report.Table{
		Title:   "Table 7: random forest transfer across drive models (N=1)",
		Columns: []string{"Test \\ Train", "MLC-A", "MLC-B", "MLC-D", "All", "paper All"},
	}
	const folds = 3 // per-model fleets are a third of the drives
	// The diagonal (train and test share a model) is one engine grid: a
	// forest CV per drive-model scope.
	diag, err := runGrid(ctx.ModelGridSpec(folds, 1))
	if err != nil {
		return nil, fmt.Errorf("table 7 diagonal: %w", err)
	}
	// The All column is one pooled CV on the full fleet — the run behind
	// Figure 13 — sliced to each test model's rows.
	pooled, err := ctx.PooledCV(1)
	if err != nil {
		return nil, fmt.Errorf("table 7 all column: %w", err)
	}
	for _, testM := range trace.Models {
		row := []string{testM.String()}
		for _, trainM := range trace.Models {
			if trainM == testM {
				r, err := cellSummary(diag, testM.String(), "Random Forest", 1)
				if err != nil {
					return nil, fmt.Errorf("table 7: %w", err)
				}
				row = append(row, fmt.Sprintf("%.3f*", r.Mean))
				continue
			}
			auc, err := trainTest(
				ctx.ModelFleet[trainM], ctx.ModelFleet[testM],
				ctx.ModelAn[trainM], ctx.ModelAn[testM],
				1, ctx.Cfg.Seed, ctx.Cfg.TestNegSampleProb,
				ctx.forestSpec()[0].New(ctx.Cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("table 7 (%v->%v): %w", trainM, testM, err)
			}
			row = append(row, report.F(auc, 3))
		}
		s, y := pooled.filter(func(i int) bool { return pooled.Models[i] == testM })
		row = append(row, fmt.Sprintf("%.3f*", eval.AUC(s, y)))
		ref := PaperTable7[testM.String()]
		row = append(row, report.F(ref[3], 3))
		tbl.AddRow(row...)
	}
	tbl.Notes = append(tbl.Notes, "* cross-validated (train and test share a model; drives never overlap)")
	return tbl, nil
}

// trainTest fits clf on one fleet's rows (1:1 downsampled) and returns
// its AUC on another fleet's: Table 7's off-diagonal transfer cells.
func trainTest(trainFleet, testFleet *trace.Fleet, trainAn, testAn *failure.Analysis,
	lookahead int, seed uint64, testNegSampleProb float64, clf ml.Classifier) (float64, error) {
	train := dataset.Extract(trainFleet, trainAn, dataset.Options{
		Lookahead: lookahead,
		Seed:      seed,
		AgeMax:    -1,
	})
	train = dataset.Downsample(train, 1, seed)
	test := dataset.Extract(testFleet, testAn, dataset.Options{
		Lookahead:          lookahead,
		Seed:               seed + 1000,
		NegativeSampleProb: testNegSampleProb,
		AgeMax:             -1,
	})
	if train.Positives() == 0 || test.Positives() == 0 {
		return 0, errors.New("experiments: train or test has no positives")
	}
	if err := clf.Fit(train); err != nil {
		return 0, err
	}
	return eval.AUC(ml.ScoreBatch(clf, test), test.Y), nil
}

// table8Kinds lists the error targets of Table 8 in paper order; -1
// denotes bad-block growth.
var table8Kinds = []struct {
	name string
	kind int // trace.ErrorKind, or -1 for bad block growth
}{
	{"bad_block", -1},
	{"erase", int(trace.ErrErase)},
	{"final_read", int(trace.ErrFinalRead)},
	{"final_write", int(trace.ErrFinalWrite)},
	{"meta", int(trace.ErrMeta)},
	{"read", int(trace.ErrRead)},
	{"response", int(trace.ErrResponse)},
	{"timeout", int(trace.ErrTimeout)},
	{"uncorrectable", int(trace.ErrUncorrectable)},
	{"write", int(trace.ErrWrite)},
}

// relabelErrorOccurrence rewrites the labels of m in place: row i becomes
// positive when the drive reports the target event within the next n
// days after the row's day (exclusive of the row's own day).
func relabelErrorOccurrence(m *dataset.Matrix, f *trace.Fleet, kind int, n int32) {
	for i := 0; i < m.Len(); i++ {
		d := &f.Drives[m.DriveIdx[i]]
		day := m.Day[i]
		label := int8(0)
		j := d.LastRecordBefore(day + 1) // index of the row's own record
		var prevBB uint32
		if j >= 0 {
			prevBB = d.Days[j].GrownBadBlocks
		}
		for j2 := j + 1; j2 < len(d.Days) && d.Days[j2].Day <= day+n; j2++ {
			if kind < 0 {
				if d.Days[j2].GrownBadBlocks > prevBB {
					label = 1
					break
				}
			} else if d.Days[j2].Errors[kind] > 0 {
				label = 1
				break
			}
		}
		m.Y[i] = label
	}
}

// Table8 predicts each error type two days ahead with random forests,
// for the combined population and for young/old age bands
// (paper Table 8). Targets with too few positives in a band are marked
// "-", as the paper does for response errors.
func Table8(ctx *Context) (*report.Table, error) {
	const lookahead = 2
	tbl := &report.Table{
		Title:   "Table 8: random forest AUC predicting error events (N=2)",
		Columns: []string{"Error", "Combined", "Young", "Old", "paper C", "paper Y", "paper O"},
	}
	// One base extraction, uniformly subsampled; labels rewritten per
	// target. (Uniform row sampling is label-independent here because
	// Lookahead=1 failure positives are a negligible share.)
	base := dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{
		Lookahead:          1,
		Seed:               ctx.Cfg.Seed + 7,
		NegativeSampleProb: 0.5,
		AgeMax:             -1,
	})
	folds := dataset.Folds(len(ctx.Fleet.Drives), 3, ctx.Cfg.Seed)
	cfg := forest.DefaultConfig()
	cfg.Trees = ctx.Cfg.ForestTrees / 2
	if cfg.Trees < 20 {
		cfg.Trees = 20
	}
	cfg.Seed = ctx.Cfg.Seed
	cfg.Workers = ctx.Cfg.Workers

	evalBand := func(m *dataset.Matrix, ageMin, ageMax int32) string {
		// Row indices within the band.
		var rows []int
		for i := 0; i < m.Len(); i++ {
			if m.Age[i] < ageMin || (ageMax >= 0 && m.Age[i] > ageMax) {
				continue
			}
			rows = append(rows, i)
		}
		band := m.Subset(rows)
		var aucs []float64
		for k := 0; k < 3; k++ {
			var trainRows, testRows []int
			for i := 0; i < band.Len(); i++ {
				if folds[band.DriveIdx[i]] == k {
					testRows = append(testRows, i)
				} else {
					trainRows = append(trainRows, i)
				}
			}
			train := dataset.Downsample(band.Subset(trainRows), 1, ctx.Cfg.Seed+uint64(k))
			test := band.Subset(testRows)
			if train.Positives() < 10 || test.Positives() < 5 {
				return "-"
			}
			f := forest.New(cfg)
			if err := f.Fit(train); err != nil {
				return "-"
			}
			aucs = append(aucs, eval.AUC(ml.ScoreBatch(f, test), test.Y))
		}
		var mean float64
		for _, a := range aucs {
			mean += a
		}
		return report.F(mean/float64(len(aucs)), 3)
	}

	for _, target := range table8Kinds {
		relabelErrorOccurrence(base, ctx.Fleet, target.kind, lookahead)
		row := []string{target.name,
			evalBand(base, 0, -1),
			evalBand(base, 0, failure.YoungAgeDays),
			evalBand(base, failure.YoungAgeDays+1, -1),
		}
		ref := PaperTable8[target.name]
		for _, v := range ref {
			if v < 0 {
				row = append(row, "-")
			} else {
				row = append(row, report.F(v, 3))
			}
		}
		tbl.AddRow(row...)
	}
	tbl.Notes = append(tbl.Notes,
		"paper: age-partitioned training improves young-band error prediction; response errors too rare to evaluate")
	return tbl, nil
}

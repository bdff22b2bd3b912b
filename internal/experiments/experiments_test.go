package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/trace"
)

// aucOf delegates to the eval package's rank AUC.
func aucOf(s []float64, y []int8) float64 { return eval.AUC(s, y) }

// extractForRelabelTest pulls a uniformly sampled matrix for relabeling
// checks.
func extractForRelabelTest(ctx *Context) *dataset.Matrix {
	return dataset.Extract(ctx.Fleet, ctx.An, dataset.Options{
		Lookahead:          1,
		Seed:               99,
		NegativeSampleProb: 0.1,
		AgeMax:             -1,
	})
}

var (
	ctxOnce sync.Once
	testCtx *Context
	ctxErr  error
)

// getCtx builds one small shared context for all experiment tests.
func getCtx(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Seed = 77
		cfg.DrivesPerModel = 120
		cfg.HorizonDays = 2190
		cfg.CVFolds = 3
		cfg.ForestTrees = 40
		cfg.TestNegSampleProb = 0.15
		testCtx, ctxErr = NewContext(cfg)
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return testCtx
}

func TestNewContextBuildsModelViews(t *testing.T) {
	ctx := getCtx(t)
	if got := len(ctx.Fleet.Drives); got != 360 {
		t.Fatalf("drives = %d", got)
	}
	for _, m := range trace.Models {
		if len(ctx.ModelFleet[m].Drives) != 120 {
			t.Errorf("model %v view has %d drives", m, len(ctx.ModelFleet[m].Drives))
		}
		if ctx.ModelAn[m] == nil {
			t.Errorf("model %v analysis missing", m)
		}
	}
	if len(ctx.An.Events) == 0 {
		t.Fatal("no failures reconstructed; experiments need failures")
	}
}

func TestTable1Shape(t *testing.T) {
	ctx := getCtx(t)
	tbl := Table1(ctx)
	if len(tbl.Rows) != 9 { // 10 kinds minus erase
		t.Fatalf("Table 1 rows = %d, want 9", len(tbl.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"correctable", "uncorrectable", "final_read"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2SpearmanStructure(t *testing.T) {
	ctx := getCtx(t)
	m, tbl := Table2Matrix(ctx)
	if len(m) != 12 {
		t.Fatalf("matrix size = %d", len(m))
	}
	// Diagonal ones, symmetry, range.
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diag[%d] = %v", i, m[i][i])
		}
		for j := range m {
			// NaN entries (a constant column, e.g. zero response errors
			// in a small fleet) are mirrored as NaN.
			if math.IsNaN(m[i][j]) {
				if !math.IsNaN(m[j][i]) {
					t.Errorf("asymmetric NaN at (%d,%d)", i, j)
				}
				continue
			}
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
			if m[i][j] < -1.000001 || m[i][j] > 1.000001 {
				t.Errorf("correlation out of range at (%d,%d): %v", i, j, m[i][j])
			}
		}
	}
	// Key structural facts from the paper's Table 2:
	// uncorrectable (idx 7) ~ final read (idx 1) very high,
	// age (idx 11) ~ P/E (idx 9) high,
	// P/E (idx 9) ~ uncorrectable (idx 7) low.
	if m[7][1] < 0.7 {
		t.Errorf("UE~final-read Spearman = %.2f, want high (paper 0.97)", m[7][1])
	}
	if m[11][9] < 0.4 {
		t.Errorf("age~P/E Spearman = %.2f, want high (paper 0.73)", m[11][9])
	}
	if m[9][7] > 0.5 {
		t.Errorf("P/E~UE Spearman = %.2f, want low (paper 0.19)", m[9][7])
	}
	if tbl == nil || len(tbl.Rows) != 12 {
		t.Error("Table 2 rendering incomplete")
	}
}

func TestTable3And4(t *testing.T) {
	ctx := getCtx(t)
	t3 := Table3(ctx)
	if len(t3.Rows) != 4 {
		t.Fatalf("Table 3 rows = %d", len(t3.Rows))
	}
	t4 := Table4(ctx)
	if len(t4.Rows) != 5 {
		t.Fatalf("Table 4 rows = %d", len(t4.Rows))
	}
	if !strings.Contains(t4.Rows[0][1], "%") {
		t.Errorf("Table 4 cell not a percentage: %q", t4.Rows[0][1])
	}
}

func TestTable5(t *testing.T) {
	ctx := getCtx(t)
	tbl := Table5(ctx)
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table 5 rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 8 {
		t.Fatalf("Table 5 columns = %d", len(tbl.Columns))
	}
}

func TestCharacterizationFigures(t *testing.T) {
	ctx := getCtx(t)
	type fig struct {
		name string
		run  func() bool
	}
	figs := []fig{
		{"Figure1", func() bool { tb, p := Figure1(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure3", func() bool { tb, p := Figure3(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure4", func() bool { tb, p := Figure4(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure5", func() bool { tb, p := Figure5(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure6", func() bool { tb, p := Figure6(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure7", func() bool { tb, p := Figure7(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure8", func() bool { tb, p := Figure8(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure9", func() bool { tb, p := Figure9(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
		{"Figure10", func() bool { tb, p := Figure10(ctx); return tb != nil && p != nil && len(tb.Rows) > 0 }},
	}
	for _, f := range figs {
		if !f.run() {
			t.Errorf("%s produced empty output", f.name)
		}
	}
	top, bottom := Figure11(ctx)
	if top == nil || bottom == nil || len(top.Rows) != 8 {
		t.Error("Figure 11 incomplete")
	}
}

func TestFigure2Timeline(t *testing.T) {
	ctx := getCtx(t)
	tbl := Figure2(ctx)
	if len(tbl.Rows) < 4 {
		t.Fatalf("Figure 2 rows = %d", len(tbl.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"failure (last operational day)", "swap (sent to repairs)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 missing %q:\n%s", want, out)
		}
	}
}

func TestHyperparameterGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := HyperparameterGrid(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	selected := 0
	for _, row := range tbl.Rows {
		if row[3] != "" {
			selected++
		}
	}
	if selected != 1 {
		t.Errorf("grid search selected %d rows, want exactly 1", selected)
	}
}

// TestBestMeanFirstWinsTies pins the depth search's pick on fixed means:
// the arg-max, and the earliest of equal maxima.
func TestBestMeanFirstWinsTies(t *testing.T) {
	for _, c := range []struct {
		means []float64
		want  int
	}{
		{[]float64{0.7}, 0},
		{[]float64{0.7, 0.9, 0.8}, 1},
		{[]float64{0.9, 0.9, 0.8}, 0},
		{[]float64{0.6, 0.8, 0.8, 0.8}, 1},
		{[]float64{0.5, 0.6, 0.7, 0.9}, 3},
	} {
		results := make([]eval.Result, len(c.means))
		for i, m := range c.means {
			results[i].Mean = m
		}
		if got := bestMean(results); got != c.want {
			t.Errorf("bestMean(%v) = %d, want %d", c.means, got, c.want)
		}
	}
}

// TestTable7AllColumnIsFigure13 pins Table 7's All column to the one
// pooled forest CV behind Figure 13: per test model, the same AUC.
func TestTable7AllColumnIsFigure13(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl7, err := Table7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ctx.PooledCV(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl13, _ := Figure13(ctx, ps)
	if len(tbl7.Rows) != len(trace.Models) {
		t.Fatalf("Table 7 rows = %d", len(tbl7.Rows))
	}
	for i, row := range tbl7.Rows {
		if got, want := row[4], tbl13.Rows[i][1]+"*"; got != want {
			t.Errorf("%s: All column %s, Figure 13 AUC %s", row[0], got, want)
		}
	}
}

func TestSurvivalAnalysis(t *testing.T) {
	ctx := getCtx(t)
	tbl := SurvivalAnalysis(ctx)
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tbl.Rows))
	}
	// KM failure CDF must never sit below the naive CDF evaluated on
	// the same horizon grid (censoring only adds at-risk exposure).
	for _, row := range tbl.Rows[:4] {
		var naive, km float64
		if _, err := fmt.Sscanf(row[2], "%f", &naive); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(row[3], "%f", &km); err != nil {
			continue
		}
		if km+1e-9 < naive {
			t.Errorf("KM CDF %v below naive %v at %s", km, naive, row[1])
		}
	}
}

func TestFigure6InfantMortalityShape(t *testing.T) {
	ctx := getCtx(t)
	ages := ctx.An.FailureAges()
	if len(ages) < 20 {
		t.Skipf("only %d failures; too few for shape test", len(ages))
	}
	within90, total := 0, 0
	for _, a := range ages {
		total++
		if a <= 90 {
			within90++
		}
	}
	frac := float64(within90) / float64(total)
	if frac < 0.10 || frac > 0.50 {
		t.Errorf("failures within 90 days = %.2f, want ~0.25", frac)
	}
}

func TestPredictionPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("prediction experiments are slow")
	}
	ctx := getCtx(t)

	// Figure 12 subset: forest AUC at N=1 must beat N=7 (trend check).
	var pooled [2]float64
	for i, n := range []int{1, 7} {
		ps, err := ctx.PooledCV(n)
		if err != nil {
			t.Fatal(err)
		}
		pooled[i] = aucOf(ps.Scores, ps.Y)
	}
	r1, r7 := pooled[0], pooled[1]
	if r1 < 0.70 {
		t.Errorf("forest AUC at N=1 = %.3f, want >= 0.70", r1)
	}
	if r1 <= r7-0.03 {
		t.Errorf("AUC should decline with lookahead: N=1 %.3f vs N=7 %.3f", r1, r7)
	}
}

func TestPooledCVAndAgeFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("prediction experiments are slow")
	}
	ctx := getCtx(t)
	ps, err := ctx.PooledCV(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Scores) != len(ps.Y) || len(ps.Y) != len(ps.Ages) || len(ps.Ages) != len(ps.Models) {
		t.Fatal("pooled slices disagree in length")
	}
	tbl13, plot13 := Figure13(ctx, ps)
	if len(tbl13.Rows) != 3 || plot13 == nil {
		t.Error("Figure 13 incomplete")
	}
	tbl14, plot14 := Figure14(ctx, ps)
	if len(tbl14.Rows) == 0 || plot14 == nil {
		t.Error("Figure 14 incomplete")
	}
	tbl15, _, err := Figure15(ctx, ps)
	if err != nil {
		t.Fatalf("Figure 15: %v", err)
	}
	if len(tbl15.Rows) != 4 {
		t.Error("Figure 15 incomplete")
	}
	tbl16, err := Figure16(ctx)
	if err != nil {
		t.Fatalf("Figure 16: %v", err)
	}
	if len(tbl16.Rows) != 10 {
		t.Error("Figure 16 incomplete")
	}
	// Shape: the young model's features must include symptom/lifetime
	// counters; at the small test scale (tens of young positives) the
	// exact ranking is noisy, so only structural validity is asserted
	// here. The full-scale report checks the ranking qualitatively in
	// EXPERIMENTS.md.
	for _, row := range tbl16.Rows {
		if len(row) != 5 || row[1] == "" || row[3] == "" {
			t.Fatalf("Figure 16 malformed row: %v", row)
		}
	}
}

func TestTable8Relabeling(t *testing.T) {
	ctx := getCtx(t)
	// Spot-check the relabeling helper on the real fleet.
	m := extractForRelabelTest(ctx)
	relabelErrorOccurrence(m, ctx.Fleet, int(trace.ErrUncorrectable), 2)
	checked := 0
	for i := 0; i < m.Len() && checked < 2000; i++ {
		d := &ctx.Fleet.Drives[m.DriveIdx[i]]
		day := m.Day[i]
		want := int8(0)
		for j := range d.Days {
			if d.Days[j].Day > day && d.Days[j].Day <= day+2 &&
				d.Days[j].Errors[trace.ErrUncorrectable] > 0 {
				want = 1
			}
		}
		if m.Y[i] != want {
			t.Fatalf("row %d (drive %d day %d): label %d, want %d",
				i, m.DriveIdx[i], day, m.Y[i], want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no rows checked")
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	if len(PaperTable1) != 9 {
		t.Errorf("PaperTable1 entries = %d", len(PaperTable1))
	}
	if len(PaperTable6) != 6 {
		t.Errorf("PaperTable6 entries = %d", len(PaperTable6))
	}
	if len(PaperTable8) != 10 {
		t.Errorf("PaperTable8 entries = %d", len(PaperTable8))
	}
	for name, row := range PaperTable6 {
		prev := 1.0
		for i, v := range row {
			if v > prev {
				t.Errorf("%s: paper AUC increases from N=%d to N=%d",
					name, PaperTable6Lookaheads[max(0, i-1)], PaperTable6Lookaheads[i])
			}
			prev = v
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

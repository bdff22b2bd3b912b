package experiments

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ssdfail/internal/dataset"
	"ssdfail/internal/expgrid"
)

func TestAblationSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := AblationSplit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The leak is the point of the ablation: a row split must score
	// above the drive-partitioned protocol.
	var byDrive, byRow float64
	fmt.Sscan(tbl.Rows[0][1], &byDrive)
	fmt.Sscan(tbl.Rows[1][1], &byRow)
	if byRow <= byDrive {
		t.Errorf("by-row AUC %.3f not above by-drive AUC %.3f", byRow, byDrive)
	}
}

// TestAblationBaselinesAreGridCells is the one-engine property: where an
// ablation or extension leaves Table 6's forest spec unchanged, its cell
// is the forest-only grid's cell bit for bit — whatever other
// lookaheads or classifiers share the run.
func TestAblationBaselinesAreGridCells(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	ref, err := runGrid(ctx.forestGrid(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		spec       expgrid.Spec
		lookaheads []int
	}{
		{"AblationDownsampling 1:1 row", ctx.downsampleSpec(1), []int{1}},
		{"ExtensionWindowedFeatures single-day column", ctx.windowedSpec(0), []int{1, 7}},
		{"ExtensionGBDT forest column", ctx.gbdtSpec(), []int{1, 7}},
	} {
		res, err := runGrid(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, n := range c.lookaheads {
			want, _ := ref.Cell("all", "Random Forest", n)
			got, _ := res.Cell("all", "Random Forest", n)
			if len(want) != ctx.Cfg.CVFolds || !slices.Equal(got, want) {
				t.Errorf("%s N=%d: fold AUCs %v, forest-only grid %v", c.name, n, got, want)
			}
		}
	}
}

func TestAblationDownsampling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := AblationDownsampling(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationFeatureSets(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := AblationFeatureSets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationForestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := AblationForestSize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The time column is fit + score time only: it used to be task wall
	// time, which charged the grid's one feature extraction to whichever
	// sizes ran first. Forty times the trees must cost more.
	first, err1 := time.ParseDuration(tbl.Rows[0][3])
	last, err2 := time.ParseDuration(tbl.Rows[4][3])
	if err1 != nil || err2 != nil || first <= 0 || first >= last {
		t.Errorf("fit+score time: 5 trees %q, 200 trees %q", tbl.Rows[0][3], tbl.Rows[4][3])
	}
}

func TestExtensionWindowedFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := ExtensionWindowedFeatures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 4 || row[1] == "" || row[2] == "" {
			t.Fatalf("malformed row %v", row)
		}
	}
}

func TestExtensionGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	tbl, err := ExtensionGBDT(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
}

func TestMaskedModelZeroesFeatures(t *testing.T) {
	keep := featureSet(func(f int) bool { return f == dataset.FDriveAge })
	if keep[dataset.FReadCount] || !keep[dataset.FDriveAge] {
		t.Fatal("featureSet mask wrong")
	}
	m := &maskedModel{keep: keep}
	x := make([]float64, dataset.NumFeatures)
	for i := range x {
		x[i] = 1
	}
	masked := m.mask(x)
	for f, v := range masked {
		want := 0.0
		if f == dataset.FDriveAge {
			want = 1
		}
		if v != want {
			t.Fatalf("mask[%d] = %v, want %v", f, v, want)
		}
	}
}

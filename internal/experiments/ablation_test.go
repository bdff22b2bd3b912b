package experiments

import (
	"fmt"
	"slices"
	"testing"

	"ssdfail/internal/dataset"
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
// ablation leaves Table 6's forest spec unchanged, its cell is the
// forest-only grid's cell bit for bit — whatever other lookaheads share
// the run.
func TestAblationBaselinesAreGridCells(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx := getCtx(t)
	ref, err := runGrid(ctx.forestGrid(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runGrid(ctx.downsampleSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Cell("all", "Random Forest", 1)
	got, _ := res.Cell("all", "Random Forest", 1)
	if len(want) != ctx.Cfg.CVFolds || !slices.Equal(got, want) {
		t.Errorf("AblationDownsampling 1:1 row: fold AUCs %v, forest-only grid %v", got, want)
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

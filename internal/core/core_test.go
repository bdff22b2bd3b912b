package core

import (
	"bytes"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"ssdfail/internal/ml/knn"
	"ssdfail/internal/ml/tree"
	"ssdfail/internal/model"
	"ssdfail/internal/trace"
)

var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

func getStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study, studyErr = GenerateStudy(5, 120)
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestGenerateStudy(t *testing.T) {
	s := getStudy(t)
	if len(s.Fleet.Drives) != 360 {
		t.Fatalf("drives = %d", len(s.Fleet.Drives))
	}
	if s.Analysis == nil || len(s.Analysis.Events) == 0 {
		t.Fatal("no failures reconstructed")
	}
}

func TestSummarize(t *testing.T) {
	s := getStudy(t)
	sum := s.Summarize()
	if sum.Drives != 360 || sum.DriveDays == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.FailedPct < 2 || sum.FailedPct > 25 {
		t.Errorf("failed pct = %.2f", sum.FailedPct)
	}
	if sum.InfantPct < 5 || sum.InfantPct > 60 {
		t.Errorf("infant pct = %.2f", sum.InfantPct)
	}
	if sum.Failures < sum.FailedDrives {
		t.Error("failures < failed drives")
	}
	if sum.Repaired > sum.Failures {
		t.Error("repaired > failures")
	}
}

// TestSaveLoadRoundTrip rebuilds a study from its fleet's binary trace
// (what cmd/ssdgen writes) and gets the same reconstruction.
func TestSaveLoadRoundTrip(t *testing.T) {
	s := getStudy(t)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s.Fleet); err != nil {
		t.Fatal(err)
	}
	fleet, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewStudy(fleet)
	if len(loaded.Fleet.Drives) != len(s.Fleet.Drives) {
		t.Fatal("loaded drive count differs")
	}
	if len(loaded.Analysis.Events) != len(s.Analysis.Events) {
		t.Fatal("loaded analysis differs")
	}
}

func TestTrainPredictorWithHoldout(t *testing.T) {
	s := getStudy(t)
	p, err := s.TrainPredictor(PredictorOptions{
		Lookahead:       1,
		Seed:            3,
		HoldoutFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookahead != 1 {
		t.Errorf("lookahead = %d", p.Lookahead)
	}
	if math.IsNaN(p.ValidationAUC) {
		t.Fatal("expected a validation AUC with holdout")
	}
	if p.ValidationAUC < 0.6 {
		t.Errorf("validation AUC = %.3f, want >= 0.6", p.ValidationAUC)
	}
}

func TestTrainPredictorNoHoldout(t *testing.T) {
	s := getStudy(t)
	p, err := s.TrainPredictor(PredictorOptions{
		Seed:    4,
		Factory: tree.NewFactory(tree.DefaultConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(p.ValidationAUC) {
		t.Error("without holdout the validation AUC should be NaN")
	}
}

func TestScoreDrive(t *testing.T) {
	s := getStudy(t)
	p, err := s.TrainPredictor(PredictorOptions{Seed: 5,
		Factory: tree.NewFactory(tree.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	for di := range s.Fleet.Drives {
		d := &s.Fleet.Drives[di]
		if len(d.Days) == 0 {
			continue
		}
		v := p.ScoreDrive(d)
		if v < 0 || v > 1 {
			t.Fatalf("score %v outside [0,1]", v)
		}
		scored++
		if scored > 50 {
			break
		}
	}
	var empty trace.Drive
	if p.ScoreDrive(&empty) != 0 {
		t.Error("empty drive should score 0")
	}
}

func TestWatchlist(t *testing.T) {
	s := getStudy(t)
	p, err := s.TrainPredictor(PredictorOptions{Seed: 6,
		Factory: tree.NewFactory(tree.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	watch := s.Watchlist(p, 0, 10)
	if len(watch) != 10 {
		t.Fatalf("watchlist size = %d", len(watch))
	}
	for i := 1; i < len(watch); i++ {
		if watch[i].Score > watch[i-1].Score {
			t.Fatal("watchlist not sorted by score")
		}
	}
	// sinceDay beyond the horizon filters everything.
	if got := s.Watchlist(p, s.Fleet.Horizon+1, 10); len(got) != 0 {
		t.Errorf("future watchlist should be empty, got %d", len(got))
	}
	// k = 0 returns all live drives.
	all := s.Watchlist(p, 0, 0)
	if len(all) == 0 || len(all) < len(watch) {
		t.Errorf("unbounded watchlist = %d entries", len(all))
	}
}

func TestPredictorSaveLoad(t *testing.T) {
	s := getStudy(t)
	p, err := s.TrainPredictor(PredictorOptions{Lookahead: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "predictor.bin")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := model.LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Lookahead != 2 {
		t.Errorf("lookahead = %d", loaded.Lookahead)
	}
	// Scores must match the original exactly.
	for di := 0; di < 30; di++ {
		d := &s.Fleet.Drives[di]
		if len(d.Days) == 0 {
			continue
		}
		if p.ScoreDrive(d) != loaded.ScoreDrive(d) {
			t.Fatalf("drive %d scores differ after reload", d.ID)
		}
	}
	if _, err := model.LoadPredictor(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file should error")
	}
}

func TestPredictorSaveUnsupportedModel(t *testing.T) {
	s := getStudy(t)
	// k-NN has no binary marshaling; Save must refuse cleanly.
	p, err := s.TrainPredictor(PredictorOptions{Seed: 9,
		Factory: knn.NewFactory(knn.Config{K: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(filepath.Join(t.TempDir(), "x.bin")); err == nil {
		t.Error("saving a k-NN predictor should error")
	}
}

func TestTrainPredictorErrorOnNoFailures(t *testing.T) {
	f := &trace.Fleet{Horizon: 100}
	f.Drives = append(f.Drives, trace.Drive{ID: 1, Model: trace.MLCA,
		Days: []trace.DayRecord{{Day: 1, Reads: 5, Writes: 5}}})
	s := NewStudy(f)
	if _, err := s.TrainPredictor(PredictorOptions{}); err == nil {
		t.Error("training without failures should error")
	}
}

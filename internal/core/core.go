// Package core is the high-level API of the library: it ties together
// fleet acquisition (simulation, or NewStudy over a fleet read with
// trace.ReadBinary), failure-timeline reconstruction, and failure
// prediction into a small set of calls that cover the paper's workflow
// end to end:
//
//	study, _ := core.GenerateStudy(42, 300)        // or NewStudy(fleet)
//	pred, _ := study.TrainPredictor(core.PredictorOptions{Lookahead: 1})
//	watch := study.Watchlist(pred, today, 20)      // drives to act on
//
// The predictor itself, its scoring and its file format, is
// internal/model. The lower-level packages (fleetsim, failure, dataset,
// ml/*, eval) remain available for custom pipelines.
package core

import (
	"sort"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/model"
	"ssdfail/internal/trace"
)

// Study bundles a fleet trace with its reconstructed failure timeline.
type Study struct {
	Fleet    *trace.Fleet
	Analysis *failure.Analysis
}

// NewStudy wraps an existing fleet, reconstructing its failure timeline.
func NewStudy(f *trace.Fleet) *Study {
	return &Study{Fleet: f, Analysis: failure.Analyze(f)}
}

// GenerateStudy simulates a fleet with the calibrated default
// configuration (drivesPerModel drives of each MLC model over six
// years) and reconstructs it.
func GenerateStudy(seed uint64, drivesPerModel int) (*Study, error) {
	fleet, _, err := fleetsim.Generate(fleetsim.DefaultConfig(seed, drivesPerModel))
	if err != nil {
		return nil, err
	}
	return NewStudy(fleet), nil
}

// Summary aggregates headline statistics of the study.
type Summary struct {
	Drives       int
	DriveDays    int
	Failures     int
	FailedDrives int
	FailedPct    float64
	InfantPct    float64 // failures at age <= 90 days
	Repaired     int     // failures observed to re-enter the field
}

// Summarize computes the study summary.
func (s *Study) Summarize() Summary {
	sum := Summary{
		Drives:    len(s.Fleet.Drives),
		DriveDays: s.Fleet.DriveDays(),
		Failures:  len(s.Analysis.Events),
	}
	sum.FailedDrives = s.Analysis.FailedDriveCount()
	if sum.Drives > 0 {
		sum.FailedPct = 100 * float64(sum.FailedDrives) / float64(sum.Drives)
	}
	young := 0
	for i := range s.Analysis.Events {
		e := &s.Analysis.Events[i]
		if e.Young() {
			young++
		}
		if e.ReturnDay >= 0 {
			sum.Repaired++
		}
	}
	if sum.Failures > 0 {
		sum.InfantPct = 100 * float64(young) / float64(sum.Failures)
	}
	return sum
}

// PredictorOptions configures TrainPredictor.
type PredictorOptions struct {
	// Lookahead N: the predictor estimates P(failure within N days).
	// Default 1.
	Lookahead int
	// Factory builds the underlying classifier; default is the paper's
	// best model, a 100-tree random forest.
	Factory ml.Factory
	// DownsampleRatio is negatives per positive in training (default 1).
	DownsampleRatio float64
	Seed            uint64
	// HoldoutFraction reserves this share of drives (by count) for the
	// validation AUC reported on the returned predictor; 0 disables the
	// holdout and trains on everything.
	HoldoutFraction float64
	Workers         int
}

// Predictor and LoadPredictor forward to internal/model, where the
// served predictor and its SSDP format live. bench/ is their only
// caller.
type Predictor = model.Predictor

var LoadPredictor = model.LoadPredictor

// TrainPredictor trains a failure predictor on the study.
func (s *Study) TrainPredictor(opts PredictorOptions) (*model.Predictor, error) {
	if opts.Lookahead <= 0 {
		opts.Lookahead = 1
	}
	if opts.Factory == nil {
		cfg := forest.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Workers = opts.Workers
		opts.Factory = forest.NewFactory(cfg)
	}
	if opts.DownsampleRatio == 0 {
		opts.DownsampleRatio = 1
	}
	nDrives := len(s.Fleet.Drives)
	holdout := make([]bool, nDrives)
	if opts.HoldoutFraction > 0 && opts.HoldoutFraction < 1 {
		k := int(opts.HoldoutFraction * float64(nDrives))
		folds := dataset.Folds(nDrives, nDrives, opts.Seed) // a permutation
		for di, pos := range folds {
			if pos < k {
				holdout[di] = true
			}
		}
	}
	train := dataset.Extract(s.Fleet, s.Analysis, dataset.Options{
		Lookahead:    opts.Lookahead,
		Seed:         opts.Seed,
		AgeMax:       -1,
		IncludeDrive: func(di int) bool { return !holdout[di] },
	})
	if opts.DownsampleRatio > 0 {
		train = dataset.Downsample(train, opts.DownsampleRatio, opts.Seed)
	}
	p, err := model.TrainPredictorOnMatrix(train, opts.Lookahead, opts.Factory)
	if err != nil {
		return nil, err
	}
	if opts.HoldoutFraction > 0 && opts.HoldoutFraction < 1 {
		test := dataset.Extract(s.Fleet, s.Analysis, dataset.Options{
			Lookahead:          opts.Lookahead,
			Seed:               opts.Seed + 1,
			NegativeSampleProb: 0.25,
			AgeMax:             -1,
			IncludeDrive:       func(di int) bool { return holdout[di] },
		})
		if test.Positives() > 0 {
			scores := make([]float64, test.Len())
			p.ScoreMatrix(test, scores)
			p.ValidationAUC = eval.AUC(scores, test.Y)
		}
	}
	return p, nil
}

// WatchItem is one entry of a fleet watchlist.
type WatchItem struct {
	DriveIdx int
	DriveID  uint32
	Model    trace.Model
	Score    float64
	Age      int32
}

// Watchlist scores the latest report of every live drive (drives whose
// last report is at or after sinceDay) with p and returns the top K by
// score, descending. This is the paper's proactive-management use case:
// the returned drives are candidates for early replacement or data
// migration.
func (s *Study) Watchlist(p *model.Predictor, sinceDay int32, k int) []WatchItem {
	var items []WatchItem
	for di := range s.Fleet.Drives {
		d := &s.Fleet.Drives[di]
		last := d.Last()
		if last == nil || last.Day < sinceDay {
			continue
		}
		items = append(items, WatchItem{
			DriveIdx: di,
			DriveID:  d.ID,
			Model:    d.Model,
			Score:    p.ScoreDrive(d),
			Age:      last.Age,
		})
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].DriveID < items[b].DriveID
	})
	if k > 0 && len(items) > k {
		items = items[:k]
	}
	return items
}

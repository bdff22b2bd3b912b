// Package core is the high-level API of the library: it ties together
// fleet acquisition (simulation or trace files), failure-timeline
// reconstruction, and failure prediction into a small set of calls that
// cover the paper's workflow end to end:
//
//	study, _ := core.GenerateStudy(42, 300)        // or LoadStudy(file)
//	pred, _ := study.TrainPredictor(core.PredictorOptions{Lookahead: 1})
//	watch := pred.Watchlist(study, today, 20)      // drives to act on
//
// The lower-level packages (fleetsim, failure, dataset, ml/*, eval)
// remain available for custom pipelines.
package core

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
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

// LoadStudy reads a fleet from a binary trace file written by SaveFleet
// (or cmd/ssdgen) and reconstructs it.
func LoadStudy(path string) (*Study, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStudy(f)
}

// ReadStudy reads a binary fleet stream.
func ReadStudy(r io.Reader) (*Study, error) {
	fleet, err := trace.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	if err := fleet.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid fleet: %w", err)
	}
	return NewStudy(fleet), nil
}

// SaveFleet writes the study's fleet to a binary trace file.
func (s *Study) SaveFleet(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, s.Fleet); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// Predictor is a trained failure predictor.
type Predictor struct {
	Lookahead int
	// ValidationAUC is the AUC on the held-out drives, or NaN when no
	// holdout was requested.
	ValidationAUC float64
	model         ml.Classifier
}

// TrainPredictor trains a failure predictor on the study.
func (s *Study) TrainPredictor(opts PredictorOptions) (*Predictor, error) {
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
	if train.Positives() == 0 {
		return nil, fmt.Errorf("core: no failures in training data; cannot train")
	}
	clf := opts.Factory()
	if err := clf.Fit(train); err != nil {
		return nil, err
	}
	p := &Predictor{Lookahead: opts.Lookahead, model: clf}
	p.ValidationAUC = math.NaN()
	if opts.HoldoutFraction > 0 && opts.HoldoutFraction < 1 {
		test := dataset.Extract(s.Fleet, s.Analysis, dataset.Options{
			Lookahead:          opts.Lookahead,
			Seed:               opts.Seed + 1,
			NegativeSampleProb: 0.25,
			AgeMax:             -1,
			IncludeDrive:       func(di int) bool { return holdout[di] },
		})
		if test.Positives() > 0 {
			p.ValidationAUC = eval.AUC(ml.ScoreBatch(clf, test), test.Y)
		}
	}
	return p, nil
}

// ScoreRecord scores one daily report (higher = more failure-prone).
func (p *Predictor) ScoreRecord(r, prev *trace.DayRecord) float64 {
	m := &dataset.Matrix{}
	m.AppendFeatureRow(r, prev)
	return p.model.Score(m.Row(0))
}

// ScoreInto scores one daily report like ScoreRecord but reuses the
// caller's scratch matrix, so batch-scoring loops (e.g. the serving
// daemon's fleet scorer) allocate per worker instead of per drive. The
// scratch matrix is reset first and must not be shared across
// goroutines.
func (p *Predictor) ScoreInto(scratch *dataset.Matrix, r, prev *trace.DayRecord) float64 {
	scratch.Reset()
	scratch.AppendFeatureRow(r, prev)
	return p.model.Score(scratch.Row(0))
}

// ScoreMatrix scores every row of m into out, which must have length
// m.Len(), bit-identical to per-row Score; it allocates nothing for the
// forest models the daemon serves.
func (p *Predictor) ScoreMatrix(m *dataset.Matrix, out []float64) {
	for i := range out {
		out[i] = p.model.Score(m.Row(i))
	}
}

// ScoreDrive scores a drive's most recent report, or returns 0 when the
// drive has no records.
func (p *Predictor) ScoreDrive(d *trace.Drive) float64 {
	n := len(d.Days)
	if n == 0 {
		return 0
	}
	var prev *trace.DayRecord
	if n > 1 {
		prev = &d.Days[n-2]
	}
	return p.ScoreRecord(&d.Days[n-1], prev)
}

// Encode serializes a trained predictor to the byte format Save writes
// and DecodePredictor reads, for callers that install models without
// touching disk first (the continuous-learning trainer hashes and
// atomically publishes these bytes). Only predictors whose underlying
// model supports binary marshaling (the default random forest does) can
// be encoded.
func (p *Predictor) Encode() ([]byte, error) {
	m, ok := p.model.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: %s does not support serialization", p.model.Name())
	}
	data, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf []byte
	buf = append(buf, "SSDP"...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(p.Lookahead))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(data)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, data...)
	return buf, nil
}

// Save writes a trained predictor to disk in the Encode format.
func (p *Predictor) Save(path string) error {
	buf, err := p.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// TrainPredictorOnMatrix fits a predictor directly on a prepared
// training matrix. It is the classifier half of TrainPredictor for
// callers that own their extraction and evaluation pipeline — the
// continuous-learning trainer builds matrices through the expgrid
// feature-matrix cache and partitions holdout drives itself, so it
// needs fit + wrap without the study-level extraction. The returned
// predictor's ValidationAUC is NaN; evaluation is the caller's job.
func TrainPredictorOnMatrix(train *dataset.Matrix, opts PredictorOptions) (*Predictor, error) {
	if opts.Lookahead <= 0 {
		opts.Lookahead = 1
	}
	if opts.Factory == nil {
		cfg := forest.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Workers = opts.Workers
		opts.Factory = forest.NewFactory(cfg)
	}
	if train.Positives() == 0 {
		return nil, fmt.Errorf("core: no failures in training data; cannot train")
	}
	clf := opts.Factory()
	if err := clf.Fit(train); err != nil {
		return nil, err
	}
	p := &Predictor{Lookahead: opts.Lookahead, ValidationAUC: math.NaN(), model: clf}
	return p, nil
}

// LoadPredictor reads a predictor saved by Save. The model is restored
// as a random forest.
func LoadPredictor(path string) (*Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodePredictor(data)
}

// DecodePredictor parses a predictor from the byte format written by
// Save. The whole buffer must be consumed: trailing garbage is
// rejected, since the daemon loads these bytes from untrusted disk
// state at runtime.
func DecodePredictor(data []byte) (*Predictor, error) {
	if len(data) < 12 || string(data[:4]) != "SSDP" {
		return nil, fmt.Errorf("core: not a predictor file")
	}
	lookahead := int(binary.LittleEndian.Uint32(data[4:8]))
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if n < 0 || 12+n != len(data) {
		return nil, fmt.Errorf("core: predictor payload length %d does not match file size %d", n, len(data))
	}
	if lookahead < 1 {
		return nil, fmt.Errorf("core: invalid lookahead %d", lookahead)
	}
	f := forest.New(forest.DefaultConfig())
	if err := f.UnmarshalBinary(data[12 : 12+n]); err != nil {
		return nil, err
	}
	p := &Predictor{Lookahead: lookahead, ValidationAUC: math.NaN(), model: f}
	return p, nil
}

// ModelName returns the name of the underlying classifier.
func (p *Predictor) ModelName() string { return p.model.Name() }

// FeatureWidth returns the feature-vector width the underlying model
// expects, or 0 when the model does not report one. Callers that build
// feature rows themselves (e.g. the serving daemon) use this to refuse
// models whose width does not match their pipeline instead of panicking
// at score time.
func (p *Predictor) FeatureWidth() int {
	if w, ok := p.model.(interface{ Width() int }); ok {
		return w.Width()
	}
	return 0
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
// last report is at or after sinceDay) and returns the top K by score,
// descending. This is the paper's proactive-management use case: the
// returned drives are candidates for early replacement or data
// migration.
func (p *Predictor) Watchlist(s *Study, sinceDay int32, k int) []WatchItem {
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

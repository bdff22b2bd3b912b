// Package model is the paper's deployed artefact (§5): a trained
// failure predictor that scores a drive's daily report against its
// previous one, and the SSDP byte format it is saved in. The serving
// daemon loads and scores it; the continuous-learning trainer fits,
// encodes and publishes it. Nothing here simulates, extracts a study or
// evaluates: those live in internal/core and below.
package model

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/trace"
)

// Predictor is a trained failure predictor.
type Predictor struct {
	Lookahead int
	// ValidationAUC is the AUC on the held-out drives, or NaN when no
	// holdout was evaluated.
	ValidationAUC float64
	clf           ml.Classifier
}

// Info describes a loaded predictor file: the serving daemon's
// registry fills it in, and its model-reload reply is this struct as
// JSON, which the trainer reads back to check what the daemon loaded.
type Info struct {
	Version      int       `json:"version"` // reload generation, 1 = startup load
	Path         string    `json:"path"`
	SHA256       string    `json:"sha256"`
	SizeBytes    int       `json:"size_bytes"`
	LoadedAt     time.Time `json:"loaded_at"`
	ModelName    string    `json:"model_name"`
	Lookahead    int       `json:"lookahead"`
	FeatureWidth int       `json:"feature_width"`
}

// TrainPredictorOnMatrix fits the classifier factory builds on a
// prepared training matrix and wraps it as a predictor for the given
// lookahead. Callers own extraction, sampling and evaluation; the
// returned predictor's ValidationAUC is NaN.
func TrainPredictorOnMatrix(train *dataset.Matrix, lookahead int, factory ml.Factory) (*Predictor, error) {
	if train.Positives() == 0 {
		return nil, fmt.Errorf("model: no failures in training data; cannot train")
	}
	clf := factory()
	if err := clf.Fit(train); err != nil {
		return nil, err
	}
	return &Predictor{Lookahead: lookahead, ValidationAUC: math.NaN(), clf: clf}, nil
}

// ScoreRecord scores one daily report (higher = more failure-prone).
func (p *Predictor) ScoreRecord(r, prev *trace.DayRecord) float64 {
	m := &dataset.Matrix{}
	m.AppendFeatureRow(r, prev)
	return p.clf.Score(m.Row(0))
}

// ScoreMatrix scores every row of m into out, which must have length
// m.Len(), bit-identical to per-row Score; it allocates nothing for the
// forest models the daemon serves.
func (p *Predictor) ScoreMatrix(m *dataset.Matrix, out []float64) {
	for i := range out {
		out[i] = p.clf.Score(m.Row(i))
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

// ModelName returns the name of the underlying classifier.
func (p *Predictor) ModelName() string { return p.clf.Name() }

// FeatureWidth returns the feature-vector width the underlying model
// expects, or 0 when the model does not report one. Callers that build
// feature rows themselves (e.g. the serving daemon) use this to refuse
// models whose width does not match their pipeline instead of panicking
// at score time.
func (p *Predictor) FeatureWidth() int {
	if w, ok := p.clf.(interface{ Width() int }); ok {
		return w.Width()
	}
	return 0
}

// Encode serializes a trained predictor to the SSDP format Save writes
// and DecodePredictor reads: "SSDP", the lookahead and the payload
// length as little-endian uint32s, then the classifier's own binary
// encoding. Callers that install models without touching disk first
// (the continuous-learning trainer hashes and atomically publishes
// these bytes) use it directly. Only predictors whose underlying model
// supports binary marshaling (the default random forest does) can be
// encoded.
func (p *Predictor) Encode() ([]byte, error) {
	m, ok := p.clf.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("model: %s does not support serialization", p.clf.Name())
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
		return nil, fmt.Errorf("model: not a predictor file")
	}
	lookahead := int(binary.LittleEndian.Uint32(data[4:8]))
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if n < 0 || 12+n != len(data) {
		return nil, fmt.Errorf("model: predictor payload length %d does not match file size %d", n, len(data))
	}
	if lookahead < 1 {
		return nil, fmt.Errorf("model: invalid lookahead %d", lookahead)
	}
	f := forest.New(forest.DefaultConfig())
	if err := f.UnmarshalBinary(data[12 : 12+n]); err != nil {
		return nil, err
	}
	return &Predictor{Lookahead: lookahead, ValidationAUC: math.NaN(), clf: f}, nil
}

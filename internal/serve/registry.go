package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/dataset"
	"ssdfail/internal/model"
)

type modelEntry struct {
	pred *model.Predictor
	info model.Info
}

// Registry holds the live predictor behind an atomic pointer. Scoring
// paths grab the current entry once per request and keep using it even
// if a reload swaps in a newer model mid-flight; Load is serialized so
// concurrent reload requests cannot interleave version numbers.
type Registry struct {
	path string
	now  func() time.Time // LoadedAt stamps; tests inject a fixed clock
	mu   sync.Mutex       // serializes Load
	cur  atomic.Pointer[modelEntry]
}

// NewRegistry points a registry at a predictor file written by
// model.Predictor.Save. Nothing is loaded until Load is called. now
// stamps model.Info.LoadedAt; nil uses the wall clock, servers pass
// their injected clock so reload timestamps follow the same time
// source as everything else they report.
func NewRegistry(path string, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now // binding the wall clock as the default seam
	}
	return &Registry{path: path, now: now}
}

// Load reads, validates, and atomically publishes the predictor file.
// On any error the previously published model keeps serving. The new
// model must report a feature width matching the serving pipeline's
// standard row layout — a width mismatch would panic at score time.
func (r *Registry) Load() (model.Info, error) {
	// Read, decode, and validate before taking the lock: the mutex only
	// serializes the version bump and publish, and a slow disk must not
	// stall a concurrent reload's error return.
	data, err := os.ReadFile(r.path)
	if err != nil {
		return model.Info{}, fmt.Errorf("serve: reading model: %w", err)
	}
	pred, err := model.DecodePredictor(data)
	if err != nil {
		return model.Info{}, fmt.Errorf("serve: decoding model: %w", err)
	}
	if w := pred.FeatureWidth(); w != dataset.NumFeatures {
		return model.Info{}, fmt.Errorf(
			"serve: model expects feature width %d, serving pipeline produces %d",
			w, dataset.NumFeatures)
	}
	sum := sha256.Sum256(data)
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if old := r.cur.Load(); old != nil {
		version = old.info.Version + 1
	}
	info := model.Info{
		Version:      version,
		Path:         r.path,
		SHA256:       hex.EncodeToString(sum[:]),
		SizeBytes:    len(data),
		LoadedAt:     r.now(),
		ModelName:    pred.ModelName(),
		Lookahead:    pred.Lookahead,
		FeatureWidth: pred.FeatureWidth(),
	}
	r.cur.Store(&modelEntry{pred: pred, info: info})
	return info, nil
}

// Current returns the live predictor and its metadata, or ok=false when
// no model has been loaded yet.
func (r *Registry) Current() (*model.Predictor, model.Info, bool) {
	e := r.cur.Load()
	if e == nil {
		return nil, model.Info{}, false
	}
	return e.pred, e.info, true
}

package expgrid

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// TaskResult is the outcome of one grid task.
type TaskResult struct {
	Key                 TaskKey
	AUC                 float64
	TrainRows, TrainPos int
	TestRows, TestPos   int
	// Seconds is the task's wall time; the stage fields split it into
	// time inside the matrix cache (building the cell's matrix or waiting
	// for the task that does), Fit, scoring the test fold, and AUC. What
	// they leave over is the row split and the training-set copy. All
	// are diagnostic: none feeds a result.
	Seconds      float64
	WaitSeconds  float64
	FitSeconds   float64
	ScoreSeconds float64
	EvalSeconds  float64
	Error        string // empty on success
	// Populated only when Spec.KeepScores is set: test scores with row
	// provenance, in base-matrix row order.
	Scores   []float64
	Y        []int8
	Ages     []int32
	DriveIdx []int32
}

// Stats summarizes one engine run.
type Stats struct {
	Workers         int     `json:"workers"`
	Tasks           int     `json:"tasks"`
	WallSeconds     float64 `json:"wall_seconds"`
	TasksPerSec     float64 `json:"tasks_per_sec"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheEvictions  int64   `json:"cache_evictions"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	PeakMatrixBytes int64   `json:"peak_matrix_bytes"`
	// Sums of the tasks' stage times (TaskResult).
	WaitSeconds  float64 `json:"wait_seconds"`
	FitSeconds   float64 `json:"fit_seconds"`
	ScoreSeconds float64 `json:"score_seconds"`
	EvalSeconds  float64 `json:"eval_seconds"`
}

// Result holds every task's outcome in canonical enumeration order
// (scope-major, then lookahead, classifier, fold) plus run statistics.
type Result struct {
	Tasks []TaskResult
	Stats Stats
}

// Err returns the first task error in canonical order, or nil.
func (r *Result) Err() error {
	for i := range r.Tasks {
		if r.Tasks[i].Error != "" {
			return errors.New(r.Tasks[i].Error)
		}
	}
	return nil
}

// Cell returns the per-fold AUCs of one (scope, classifier, lookahead)
// cell in fold order, and whether the cell exists in the result.
func (r *Result) Cell(scope, classifier string, lookahead int) ([]float64, bool) {
	var aucs []float64
	for i := range r.Tasks {
		k := &r.Tasks[i].Key
		if k.Scope == scope && k.Classifier == classifier && k.Lookahead == lookahead {
			aucs = append(aucs, r.Tasks[i].AUC)
		}
	}
	return aucs, len(aucs) > 0
}

// AUCTable renders every task's AUC as a canonical-order map from the
// task key's string form to the exact float64 (shortest round-trip
// formatting). Two runs of the same spec produce byte-identical tables
// if and only if every AUC is bit-identical — the determinism contract
// checked by tests and the grid benchmark.
func (r *Result) AUCTable() []byte {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i := range r.Tasks {
		t := &r.Tasks[i]
		if i > 0 {
			buf.WriteString(",\n")
		}
		fmt.Fprintf(&buf, "  %q: %s", t.Key.String(), strconv.FormatFloat(t.AUC, 'g', -1, 64))
	}
	buf.WriteString("\n}\n")
	return buf.Bytes()
}

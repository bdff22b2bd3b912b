package learn

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed decision-log goldens")

const goldenDir = "../../scenarios/learn/golden"

// runScenario replays the canonical drift stream through a loop at the
// given worker count and returns the decision-log bytes plus the bytes
// of every model the loop published.
func runScenario(t *testing.T, workers int) (logBytes []byte, models [][]byte) {
	t.Helper()
	var sink bytes.Buffer
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Sink = &sink
	cfg.ObserveEvery = 1024
	cfg.Promote = func(encoded []byte, o Outcome) error {
		models = append(models, append([]byte(nil), encoded...))
		return nil
	}
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(l, driftStream())
	l.Retrain() // one forced final attempt, like cmd/ssdtrain -once
	if err := l.Log().Err(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), models
}

// TestDecisionLogWorkerCountIndependence is the determinism property:
// the same snapshot LSN and WAL prefix must yield a byte-identical
// decision log AND byte-identical retrained model files at 1 and 4
// workers — parallelism is an implementation detail, never an input.
func TestDecisionLogWorkerCountIndependence(t *testing.T) {
	log1, models1 := runScenario(t, 1)
	log4, models4 := runScenario(t, 4)
	if !bytes.Equal(log1, log4) {
		t.Fatalf("decision logs differ across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", log1, log4)
	}
	if len(models1) == 0 {
		t.Fatal("scenario published no models; the golden would pin nothing")
	}
	if len(models1) != len(models4) {
		t.Fatalf("published %d models at 1 worker, %d at 4", len(models1), len(models4))
	}
	for i := range models1 {
		if !bytes.Equal(models1[i], models4[i]) {
			t.Fatalf("model %d differs across worker counts", i)
		}
	}
}

// TestDecisionLogGolden diffs the replayed decision log against the
// committed golden, so any drift in event encoding, seed derivation,
// trigger timing, or gate arithmetic fails loudly. Refresh with
// `go test ./internal/learn -run Golden -update` after an intentional
// change, and review the diff like code.
func TestDecisionLogGolden(t *testing.T) {
	got, _ := runScenario(t, 1)
	path := filepath.Join(goldenDir, "drift.eventlog")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("decision log deviates from golden %s:\n%s", path, diffLines(want, got))
	}
}

// diffLines renders a first-divergence diff of two event logs.
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: golden %d lines, got %d", len(w), len(g))
}

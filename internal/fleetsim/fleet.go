// Package fleetsim generates synthetic SSD fleet traces whose statistical
// structure follows the proprietary Google trace characterized in "SSD
// Failures in the Field" (SC '19): per-model failure incidence, a ~90-day
// infant-mortality period, age-dependent write intensity, error-type
// incidence and correlation structure, pre-failure symptom ramps, and the
// swap/repair pipeline. See DESIGN.md §2 for the substitution argument.
package fleetsim

import (
	"fmt"

	"ssdfail/internal/parallel"
	"ssdfail/internal/rng"
	"ssdfail/internal/trace"
)

// Truth is the simulator's ground truth for a generated fleet, indexed
// the same way as Fleet.Drives. Analysis code must not consume it; it
// exists so tests can validate the trace-only reconstruction.
type Truth struct {
	Drives []DriveTruth
}

// Generate simulates a fleet under the given configuration. Drive IDs are
// assigned sequentially starting at 1, grouped by model in config order.
// Generation is deterministic for a fixed seed regardless of the worker
// count: each drive consumes an RNG stream derived from (seed, driveID).
func Generate(cfg FleetConfig) (*trace.Fleet, *Truth, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	total := 0
	for i := range cfg.Models {
		total += cfg.Models[i].Drives
	}
	fleet := &trace.Fleet{Horizon: cfg.HorizonDays, Drives: make([]trace.Drive, total)}
	truth := &Truth{Drives: make([]DriveTruth, total)}

	// Flatten (model, index) pairs so the parallel loop is one range.
	modelOf := make([]*ModelConfig, total)
	idx := 0
	for i := range cfg.Models {
		for j := 0; j < cfg.Models[i].Drives; j++ {
			modelOf[idx] = &cfg.Models[i]
			idx++
		}
	}

	root := rng.New(cfg.Seed)
	parallel.For(cfg.Workers, total, func(i int) {
		id := uint32(i + 1)
		rng := root.Derive(uint64(id))
		fleet.Drives[i], truth.Drives[i] = simulateDrive(&cfg, modelOf[i], id, rng)
	})

	if err := fleet.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fleetsim: generated fleet failed validation: %w", err)
	}
	return fleet, truth, nil
}

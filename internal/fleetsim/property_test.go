package fleetsim

import (
	"testing"
	"testing/quick"

	"ssdfail/internal/failure"
	"ssdfail/internal/rng"
)

// Config-space property tests: random (but sane) parameter perturbations
// must never produce an invalid fleet, and the downstream reconstruction
// must stay consistent with it.

// perturbedConfig builds a valid config with randomized knobs.
func perturbedConfig(seed uint64) FleetConfig {
	rng := rng.New(seed)
	cfg := DefaultConfig(seed, 8+rng.Intn(20))
	cfg.HorizonDays = int32(300 + rng.Intn(1200))
	cfg.EarlyWindow = cfg.HorizonDays / 4
	for i := range cfg.Models {
		m := &cfg.Models[i]
		m.BaseHazard *= 0.3 + 2*rng.Float64()
		m.InfantHazard *= 0.3 + 2*rng.Float64()
		m.AsymptomaticProb = rng.Float64() * 0.6
		m.SevereProb = rng.Float64()
		m.UEProneProb = rng.Float64() * 0.5
		m.NonReportProb = rng.Float64()
		m.InactivityProb = rng.Float64()
		m.NeverReturnProb = rng.Float64()
		m.ReportProb = 0.5 + rng.Float64()*0.5
		m.WriteSigma = 0.1 + rng.Float64()
		m.RampMeanDays = 1 + rng.Float64()*6
		m.YoungSymptomBoost = 1 + rng.Float64()*3
		m.WorkloadDipFrac = rng.Float64() * 0.9
	}
	return cfg
}

func TestGenerateValidUnderRandomConfigs(t *testing.T) {
	prop := func(seed uint64) bool {
		cfg := perturbedConfig(seed)
		fleet, truth, err := Generate(cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if fleet.Validate() != nil {
			return false
		}
		// Every observed swap in truth must appear in the trace.
		for di := range truth.Drives {
			observed := 0
			for _, ft := range truth.Drives[di].Failures {
				if ft.SwapDay >= 0 {
					observed++
				}
			}
			if observed != len(fleet.Drives[di].Swaps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructionConsistentUnderRandomConfigs(t *testing.T) {
	prop := func(seed uint64) bool {
		cfg := perturbedConfig(seed ^ 0xabcdef)
		fleet, truth, err := Generate(cfg)
		if err != nil {
			return false
		}
		an := failure.Analyze(fleet)
		// Reconstructed events match the observed truth swaps count.
		truthSwaps := 0
		for di := range truth.Drives {
			for _, ft := range truth.Drives[di].Failures {
				if ft.SwapDay >= 0 {
					truthSwaps++
				}
			}
		}
		if truthSwaps != len(an.Events) {
			return false
		}
		// The reconstructed failure day never falls after the truth day
		// (reports may be dropped, shifting it earlier).
		for di := range truth.Drives {
			evIdx := 0
			for _, ft := range truth.Drives[di].Failures {
				if ft.SwapDay < 0 {
					continue
				}
				e := &an.Events[an.PerDrive[di][evIdx]]
				evIdx++
				if e.FailRecIdx >= 0 && e.FailDay > ft.FailDay {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

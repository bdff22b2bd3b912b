package fleetsim

import (
	"testing"

	"ssdfail/internal/rng"
	"ssdfail/internal/stats"
	"ssdfail/internal/trace"
)

// Distribution-level calibration checks using the KS machinery: two
// independently seeded fleets must be draws from the same population,
// and the raw RNG must be uniform.

func TestRNGUniformKS(t *testing.T) {
	r := rng.New(99)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if d := stats.KSUniform(xs); d > 0.015 {
		t.Errorf("RNG uniform KS statistic = %v", d)
	}
}

func TestSeedsDrawFromSamePopulation(t *testing.T) {
	gen := func(seed uint64) []float64 {
		cfg := DefaultConfig(seed, 150)
		cfg.HorizonDays = 1200
		cfg.EarlyWindow = 350
		fleet, _, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := range fleet.Drives {
			if last := fleet.Drives[i].Last(); last != nil {
				out = append(out, float64(last.CumWrites))
			}
		}
		return out
	}
	a := gen(1001)
	b := gen(2002)
	d := stats.KSStatistic(a, b)
	p := stats.KSPValue(d, len(a), len(b))
	if p < 0.001 {
		t.Errorf("cumulative-writes distributions differ across seeds: d=%v p=%v", d, p)
	}
}

func TestWorkloadLognormalShape(t *testing.T) {
	// Daily writes of mature drives should match the configured
	// lognormal within KS distance against a fresh sample from the
	// same generative formula.
	cfg := DefaultModelConfig(trace.MLCA, 1)
	r1 := rng.New(5)
	st := &driveState{cfg: &cfg, rng: r1, activity: 1}
	var sim []float64
	for len(sim) < 4000 {
		_, w, _ := st.workload(1000, -1)
		if w > 0 {
			sim = append(sim, float64(w))
		}
	}
	ref := make([]float64, 4000)
	r2 := rng.New(6)
	for i := range ref {
		ref[i] = cfg.WriteScale * r2.LogNormal(-0.5*cfg.WriteSigma*cfg.WriteSigma, cfg.WriteSigma)
	}
	d := stats.KSStatistic(sim, ref)
	if p := stats.KSPValue(d, len(sim), len(ref)); p < 0.001 {
		t.Errorf("mature write distribution diverges from its model: d=%v p=%v", d, p)
	}
}

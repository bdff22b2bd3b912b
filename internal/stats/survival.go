package stats

import (
	"math"
	"sort"
)

// Survival analysis for right-censored durations. The paper's Figures 3
// and 5 display censored mass as a bar at infinity; the Kaplan-Meier
// estimator is the principled alternative: it uses censored operational
// periods and repairs as partial information instead of discarding them,
// which matters because more than 80% of operational periods and half of
// the repairs outlive the trace.

// Observation is one (possibly censored) duration.
type Observation struct {
	Time     float64
	Censored bool // true when the event was not observed by Time
}

// KaplanMeier is the product-limit estimate of the survival function.
type KaplanMeier struct {
	times    []float64 // distinct event times, ascending
	survival []float64 // S(t) just after each event time
}

// NewKaplanMeier fits the estimator to the observations.
func NewKaplanMeier(obs []Observation) *KaplanMeier {
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Time < sorted[b].Time })

	km := &KaplanMeier{}
	atRisk := float64(len(sorted))
	s := 1.0
	i := 0
	for i < len(sorted) {
		t := sorted[i].Time
		var events, removed float64
		for i < len(sorted) && sorted[i].Time == t {
			if !sorted[i].Censored {
				events++
			}
			removed++
			i++
		}
		if events > 0 && atRisk > 0 {
			s *= 1 - events/atRisk
			km.times = append(km.times, t)
			km.survival = append(km.survival, s)
		}
		atRisk -= removed
	}
	return km
}

// Survival returns S(t) = P(T > t).
func (km *KaplanMeier) Survival(t float64) float64 {
	if len(km.times) == 0 {
		return 1
	}
	// Find the last event time <= t.
	idx := sort.SearchFloat64s(km.times, t)
	for idx < len(km.times) && km.times[idx] == t {
		idx++
	}
	if idx == 0 {
		return 1
	}
	return km.survival[idx-1]
}

// CDF returns F(t) = 1 - S(t), the event probability by time t.
func (km *KaplanMeier) CDF(t float64) float64 { return 1 - km.Survival(t) }

// Median returns the smallest event time with S(t) <= 0.5, or +Inf when
// the survival curve never reaches one half (heavy censoring).
func (km *KaplanMeier) Median() float64 {
	for i, s := range km.survival {
		if s <= 0.5 {
			return km.times[i]
		}
	}
	return math.Inf(1)
}

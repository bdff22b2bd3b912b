package bench

import (
	"fmt"
	"sort"
	"strings"
)

// MetricDef names a metric and its unit.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd lists the end-to-end metrics. BENCHMARK.json's contract has
// every workload report every end-to-end metric, so the names are
// generic and README.md says what each one measures on each workload:
// the unit of work is an accepted record on ingest_direct and
// cluster_mixed, a drive scored on fleet_scan and a grid task on
// train_grid; the operation is an ingest batch, a watchlist, a routed
// ingest batch and a whole grid run.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"cpu_us_per_unit", "us"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"rss_mb", "MB"},
}

// Metric is one reported number with what stands behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value: operations for a latency
	// percentile, trials for a median across trials, 1 for a single
	// measurement.
	N int `json:"n,omitempty"`
	// Trials holds the per-trial values of a metric measured once per
	// trial; -compare estimates the run-to-run spread from them.
	Trials []float64 `json:"trials,omitempty"`
}

// Outcome is the result of one pass of one workload.
type Outcome struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Trials    int               `json:"trials"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"violations,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
	Schedules map[string]string `json:"schedule_sha256,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

func newOutcome(workload string, traced bool) *Outcome {
	return &Outcome{Workload: workload, Traced: traced,
		Schedules: make(map[string]string), Metrics: make(map[string]Metric)}
}

// Correct reports whether every operation succeeded and every
// correctness check held.
func (o *Outcome) Correct() bool { return o.Failed == 0 && len(o.Checks) == 0 }

// fail records that an operation already counted as attempted failed a
// correctness check.
func (o *Outcome) fail(format string, args ...any) {
	o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
	o.Failed++
}

// violate records a failed correctness check that is not tied to one
// operation; it counts as one failed operation of its own so that it
// shows in the failed share.
func (o *Outcome) violate(format string, args ...any) {
	o.Attempted++
	o.fail(format, args...)
}

// addTally folds a window's operation counts into the outcome.
func (o *Outcome) addTally(t *Tally) {
	o.Attempted += t.Attempted
	o.Failed += t.Failed
	if t.FirstErr != "" {
		o.Checks = append(o.Checks, fmt.Sprintf("%d of %d operations failed; first: %s", t.Failed, t.Attempted, t.FirstErr))
	}
}

func (o *Outcome) warn(format string, args ...any) {
	o.Warnings = append(o.Warnings, fmt.Sprintf(format, args...))
}

// set records a single measurement.
func (o *Outcome) set(name, unit string, v float64) {
	o.Metrics[name] = Metric{Value: v, Unit: unit, N: 1}
}

// setMedian records the median of one value per trial.
func (o *Outcome) setMedian(name, unit string, perTrial []float64) {
	o.Metrics[name] = Metric{Value: Median(perTrial), Unit: unit, N: len(perTrial), Trials: perTrial}
}

// setLatency records a latency sample's median and tail under the two
// given names. Each is the median across trials of that trial's own
// percentile — one disturbed trial then moves the result little — when
// every trial has enough samples for the percentile; otherwise it is
// the percentile of all trials' samples pooled, with a warning if even
// the pooled sample is too small.
func (o *Outcome) setLatency(p50Name, tailName string, perTrial []Latencies, tailP float64) {
	var pooled Latencies
	p50s, tails := make([]float64, len(perTrial)), make([]float64, len(perTrial))
	perTrialTail := true
	for i, l := range perTrial {
		pooled = append(pooled, l...)
		s := l.Summarize(tailP)
		p50s[i], tails[i] = s.P50, s.Tail
		perTrialTail = perTrialTail && s.Supported
	}
	s := pooled.Summarize(tailP)
	o.Metrics[p50Name] = Metric{Value: Median(p50s), Unit: "ms", N: s.N, Trials: p50s}
	tail := s.Tail
	if perTrialTail {
		tail = Median(tails)
	}
	o.Metrics[tailName] = Metric{Value: tail, Unit: "ms", N: s.N, Trials: tails}
	if !s.Supported {
		o.warn("%s: %d samples leave fewer than %d beyond p%g", tailName, s.N, minBeyond, tailP)
	}
}

// fillZeros gives every named metric the workload did not measure the
// value 0: the layer did no work on this workload's path.
func (o *Outcome) fillZeros(defs []MetricDef) {
	for _, d := range defs {
		if _, ok := o.Metrics[d.Name]; !ok {
			o.Metrics[d.Name] = Metric{Unit: d.Unit}
		}
	}
}

// Report renders every metric by name with its unit and sample count,
// then warnings and violations, for people.
func (o *Outcome) Report() string {
	var b strings.Builder
	pass := "end-to-end"
	if o.Traced {
		pass = "traced"
	}
	fmt.Fprintf(&b, "== %s (%s pass, %d trials): %d attempted, %d failed\n",
		o.Workload, pass, o.Trials, o.Attempted, o.Failed)
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := o.Metrics[name]
		fmt.Fprintf(&b, "  %-44s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, w := range o.Warnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	for _, c := range o.Checks {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", c)
	}
	schedules := make([]string, 0, len(o.Schedules))
	for name := range o.Schedules {
		schedules = append(schedules, name)
	}
	sort.Strings(schedules)
	for _, name := range schedules {
		fmt.Fprintf(&b, "  schedule %s sha256 %s\n", name, o.Schedules[name])
	}
	return b.String()
}

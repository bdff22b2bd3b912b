package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdict is what a comparison says about one metric on one workload.
type Verdict string

const (
	Better     Verdict = "better"
	Worse      Verdict = "worse"
	Same       Verdict = "same"
	Unresolved Verdict = "unresolved"
)

// Row is one workload × metric line of a comparison.
type Row struct {
	Workload string
	Metric   string
	Unit     string
	Old, New float64
	// Worsening is the change from old to new as a share of old, signed
	// so that positive is worse whichever direction the metric prefers.
	Worsening float64
	Bound     float64
	// Spread is the wider of the two sides' interquartile range over
	// median, taken across each side's trials; 0 when a side has fewer
	// than two.
	Spread  float64
	Verdict Verdict
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method). It needs
// at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after clamping, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the interquartile range of xs as a share of its median.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// Judge compares one metric's old and new values. better is "lower" or
// "higher"; bound is the share of the old value by which the metric may
// worsen. When either side's own trials spread wider than the bound the
// medians cannot settle the matter: the verdict is unresolved unless
// every new trial reads better (or every one worse) than every old one.
func Judge(old, new Metric, better string, bound float64) (worsening, spread float64, v Verdict) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if old.Value != 0 {
		worsening = sign * (new.Value - old.Value) / math.Abs(old.Value)
	}
	spread = math.Max(spreadOf(old.Trials), spreadOf(new.Trials))
	if spread > bound {
		switch {
		case separated(new.Trials, old.Trials, sign):
			return worsening, spread, Better
		case separated(old.Trials, new.Trials, sign):
			return worsening, spread, Worse
		}
		return worsening, spread, Unresolved
	}
	switch {
	case worsening > bound:
		v = Worse
	case worsening < -bound:
		v = Better
	default:
		v = Same
	}
	return worsening, spread, v
}

// separated reports whether every value of a reads better than every
// value of b (sign +1: lower is better; -1: higher is better).
func separated(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstA, bestB := math.Inf(-1), math.Inf(1)
	for _, x := range a {
		worstA = math.Max(worstA, sign*x)
	}
	for _, x := range b {
		bestB = math.Min(bestB, sign*x)
	}
	return worstA < bestB
}

// Compare lines up the end-to-end passes of two results, workload by
// workload and metric by metric, under the bounds and directions of the
// spec. It refuses results from hosts that differ unless force is set.
func Compare(spec *Spec, old, new *Result, force bool) ([]Row, error) {
	if diff := old.Host.Diff(new.Host); len(diff) > 0 && !force {
		return nil, fmt.Errorf("bench: the results come from different hosts (%v); rerun on one host or pass -force", diff)
	}
	byName := make(map[string]*Outcome)
	for i := range new.Workloads {
		byName[new.Workloads[i].Name] = new.Workloads[i].Plain
	}
	var rows []Row
	for i := range old.Workloads {
		ow := &old.Workloads[i]
		nw := byName[ow.Name]
		if ow.Plain == nil || nw == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			om, ok1 := ow.Plain.Metrics[m.Name]
			nm, ok2 := nw.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			w, s, v := Judge(om, nm, m.Better, m.Bound)
			rows = append(rows, Row{Workload: ow.Name, Metric: m.Name, Unit: m.Unit,
				Old: om.Value, New: nm.Value, Worsening: w, Bound: m.Bound, Spread: s, Verdict: v})
		}
	}
	return rows, nil
}

// PrintRows renders a comparison as a table and returns how many rows
// read worse.
func PrintRows(w io.Writer, rows []Row) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told\tnew\tworsening\tbound\tspread\tverdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.Old, r.New, 100*r.Worsening, 100*r.Bound, 100*r.Spread, r.Verdict)
		if r.Verdict == Worse {
			worse++
		}
	}
	tw.Flush()
	return worse
}

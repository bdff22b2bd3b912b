// Package loadgen is the deterministic traffic harness for ssdserved:
// it replays fleetsim-generated fleets against a live daemon over HTTP
// in closed-loop (fixed concurrency) or open-loop (fixed arrival rate)
// mode, records per-endpoint latency histograms and error accounting,
// and — optionally — runs an end-to-end conformance pass that turns "it
// survived the load" into checked invariants: every drive reads back its
// last record, a score, and exactly as many accepted reports as were sent
// to it, /metrics counters exactly account for the driven load (accepted
// + shed + rejected), and a mid-run hot model swap is only ever observed
// monotonically.
//
// Schedules are built entirely up front from a seed; two builds with the
// same configuration are byte-identical (verified by a SHA-256 over the
// whole schedule), so any perf number produced through this harness is
// reproducible: same seed, same requests, same bytes, same order.
package loadgen

import (
	"fmt"
	"math/bits"
	"time"
)

// Histogram is a fixed-bucket HDR-style latency histogram over
// non-negative int64 values (nanoseconds). Buckets are 32 linear
// sub-buckets per power of two, so any recorded value is resolved to
// better than 1/32 ≈ 3.2% relative error while the whole range
// 0ns..~290s fits in a fixed array with no allocation per record.
//
// It is not safe for concurrent use: each load stream records into its
// own histogram and the runner merges them at the end.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits = 5 // 32 linear sub-buckets per octave
	histSub     = 1 << histSubBits
	// 58 octaves above the linear range cover values up to 2^63-1.
	histBuckets = (64 - histSubBits) * histSub
)

// bucketIndex maps a value to its bucket. Values below histSub resolve
// exactly; above, the top histSubBits+1 bits select (octave, sub).
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	shift := uint(bits.Len64(u)) - (histSubBits + 1)
	sub := u >> shift // in [histSub, 2*histSub)
	return int(shift)*histSub + int(sub)
}

// bucketUpper returns the largest value that maps to bucket i — the
// value reported for quantiles falling in that bucket, so quantiles are
// conservative (never under-reported).
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := uint(i/histSub - 1)
	sub := uint64(i%histSub + histSub)
	return int64((sub+1)<<shift - 1)
}

// Record adds one observation (negative values clamp to zero).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
}

// RecordDuration adds one duration observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Merge adds every observation of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the exact extremes (0 when empty).
func (h *Histogram) Min() int64 { return h.min }
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket containing the ceil(q·count)-th observation, except q of
// exactly 1, which returns the exact maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	target := uint64(q*float64(h.count) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max // bucket bound can exceed the true extreme
			}
			return u
		}
	}
	return h.max
}

// Quantiles is the serialized latency summary of one endpoint, in
// nanoseconds. P-values are bucket upper bounds (≤3.2% high); Mean, Min,
// and Max are exact.
type Quantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ns"`
	Min   int64   `json:"min_ns"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	P999  int64   `json:"p999_ns"`
	Max   int64   `json:"max_ns"`
}

// Summary extracts the report quantiles.
func (h *Histogram) Summary() Quantiles {
	return Quantiles{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.min,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
	}
}

func (q Quantiles) String() string {
	ms := func(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s p999=%s max=%s",
		q.Count, ms(q.P50), ms(q.P90), ms(q.P99), ms(q.P999), ms(q.Max))
}

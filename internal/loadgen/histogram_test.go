package loadgen

import (
	"math"
	"sort"
	"testing"

	"ssdfail/internal/rng"
)

func TestBucketIndexBounds(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the
	// value and whose relative overshoot is within the design error.
	rng := rng.New(11)
	values := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 40, math.MaxInt64}
	for i := 0; i < 2000; i++ {
		values = append(values, int64(rng.Uint64()>>1))
	}
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("value %d: bucket %d out of range", v, idx)
		}
		up := bucketUpper(idx)
		if up < v {
			t.Fatalf("value %d: bucket upper %d below value", v, up)
		}
		if v >= histSub {
			if rel := float64(up-v) / float64(v); rel > 1.0/histSub {
				t.Fatalf("value %d: upper %d overshoots by %.4f (> %.4f)", v, up, rel, 1.0/histSub)
			}
		} else if up != v {
			t.Fatalf("small value %d: bucket upper %d not exact", v, up)
		}
	}
	// Bucket uppers must be non-decreasing in index or quantile walks
	// would report out-of-order values.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) < bucketUpper(i-1) {
			t.Fatalf("bucketUpper not monotone at %d: %d < %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

func TestHistogramQuantilesAgainstExactData(t *testing.T) {
	rng := rng.New(7)
	var h Histogram
	data := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-normal-ish latencies spanning ~4 decades.
		v := int64(rng.LogNormal(13, 1.5)) // median ~exp(13) ns ≈ 0.44ms
		data = append(data, v)
		h.Record(v)
	}
	sort.Slice(data, func(a, b int) bool { return data[a] < data[b] })
	if h.Count() != uint64(len(data)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(data))
	}
	if h.Min() != data[0] || h.Max() != data[len(data)-1] {
		t.Fatalf("min/max = %d/%d, want %d/%d", h.Min(), h.Max(), data[0], data[len(data)-1])
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		// Same rank convention as Quantile: the round(q·n)-th smallest.
		rank := int(q*float64(len(data)) + 0.5)
		exact := data[rank-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q%.3f = %d below exact %d", q, got, exact)
		}
		if float64(got) > float64(exact)*(1+1.0/histSub)+1 {
			t.Errorf("q%.3f = %d overshoots exact %d by more than %.1f%%", q, got, exact, 100.0/histSub)
		}
	}
	var sum float64
	for _, v := range data {
		sum += float64(v)
	}
	if mean := sum / float64(len(data)); math.Abs(h.Mean()-mean) > 1e-6*mean {
		t.Errorf("mean = %v, want %v", h.Mean(), mean)
	}
}

func TestHistogramMergeEqualsCombinedRecording(t *testing.T) {
	rng := rng.New(3)
	var a, b, all Histogram
	for i := 0; i < 5000; i++ {
		v := int64(rng.Uint64() % (1 << 30))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge count/min/max mismatch")
	}
	if a.counts != all.counts {
		t.Fatalf("merged bucket counts differ from combined recording")
	}
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("q%v: merged %d, combined %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistogramEmptyAndEdge(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamps
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative clamp: min=%d max=%d n=%d", h.Min(), h.Max(), h.Count())
	}
	h.Record(1000)
	// Quantile never exceeds the observed max even when the bucket's
	// nominal upper bound does.
	if q := h.Quantile(0.999); q > 1000 {
		t.Fatalf("q999 = %d exceeds max 1000", q)
	}
	s := h.Summary()
	if s.Count != 2 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
}

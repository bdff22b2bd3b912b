// Package metrics is a minimal Prometheus text-format (version 0.0.4)
// registry on the standard library, shared by the daemons: counters,
// callback gauges, histograms, and a labeled counter
// family. Instrument updates are lock-free atomics; registration and
// scraping take the registry lock.
//
// Every family registers a collector that emits (series, value) samples;
// the text exposition and the Snapshot accessor are two renderings of
// the same sample stream, so a scrape and a programmatic snapshot can
// never disagree about what a counter reads.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricsContentType is the Content-Type of the exposition format.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a cumulative histogram with fixed upper bounds.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBuckets is the default latency bucket layout, in seconds.
var DurationBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// emitFunc receives one sample: the full series name (metric name plus
// any label set or _bucket/_sum/_count suffix, exactly as exposed in the
// text format) and its current value.
type emitFunc func(series string, v float64)

// metric is one registered family.
type metric struct {
	name, help, typ string
	collect         func(emit emitFunc)
}

// Metrics is the registry handed to the scrape endpoint.
type Metrics struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

func (ms *Metrics) register(m *metric) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.metrics = append(ms.metrics, m)
}

// NewCounter registers and returns a counter.
func (ms *Metrics) NewCounter(name, help string) *Counter {
	c := &Counter{}
	ms.register(&metric{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) { emit(name, float64(c.Value())) }})
	return c
}

// NewCounterFunc registers a counter whose value is read at scrape
// time, for monotone counts maintained elsewhere (e.g. WAL fsyncs).
func (ms *Metrics) NewCounterFunc(name, help string, fn func() uint64) {
	ms.register(&metric{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) { emit(name, float64(fn())) }})
}

// NewFloatCounterFunc registers a counter whose non-integral value is
// read at scrape time, such as a total of seconds.
func (ms *Metrics) NewFloatCounterFunc(name, help string, fn func() float64) {
	ms.register(&metric{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) { emit(name, fn()) }})
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (ms *Metrics) NewGaugeFunc(name, help string, fn func() float64) {
	ms.register(&metric{name: name, help: help, typ: "gauge",
		collect: func(emit emitFunc) { emit(name, fn()) }})
}

// NewHistogram registers and returns a histogram with the given upper
// bounds (the +Inf bucket is implicit).
func (ms *Metrics) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	ms.register(&metric{name: name, help: help, typ: "histogram",
		collect: func(emit emitFunc) {
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				emit(fmt.Sprintf("%s_bucket{le=%q}", name, formatBound(b)), float64(cum))
			}
			emit(name+`_bucket{le="+Inf"}`, float64(h.Count()))
			emit(name+"_sum", h.Sum())
			emit(name+"_count", float64(h.Count()))
		}})
	return h
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// CounterVec is a family of counters keyed by label values (e.g. HTTP
// handler and status code). Series are created lazily on first use and
// reported sorted by label set, so two scrapes of the same state are
// byte-identical regardless of which series happened to be touched
// first.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	series map[string]*Counter
}

// NewCounterVec registers and returns a labeled counter family.
func (ms *Metrics) NewCounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{labels: labels, series: make(map[string]*Counter)}
	ms.register(&metric{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) {
			cv.mu.Lock()
			defer cv.mu.Unlock()
			keys := make([]string, 0, len(cv.series))
			for key := range cv.series {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				emit(name+key, float64(cv.series[key].Value()))
			}
		}})
	return cv
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the declared label names.
func (cv *CounterVec) With(values ...string) *Counter {
	if len(values) != len(cv.labels) {
		panic("serve: label value count mismatch")
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range cv.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, l, escapeLabel(values[i]))
	}
	sb.WriteByte('}')
	key := sb.String()
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c, ok := cv.series[key]
	if !ok {
		c = &Counter{}
		cv.series[key] = c
	}
	return c
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// snapshotLocked copies the family list under the registry lock.
func (ms *Metrics) families() []*metric {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return append([]*metric(nil), ms.metrics...)
}

// Snapshot returns the current value of every series, keyed by its full
// exposition name — including label sets and histogram suffixes, e.g.
//
//	ssdserved_ingest_records_total
//	ssdserved_load_shed_total{handler="ingest"}
//	ssdserved_http_request_duration_seconds_count
//
// It reads through the same collectors as the text exposition, so a
// snapshot and a scrape taken on a quiesced server agree exactly. Tests
// and conformance harnesses use it to check counters against externally
// driven load without parsing text.
func (ms *Metrics) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms.families() {
		m.collect(func(series string, v float64) { out[series] = v })
	}
	return out
}

// formatValue renders a sample: integral values (counters, bucket
// counts) as plain decimal integers, everything else via the shortest
// round-trip float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo writes the exposition text for every registered family in
// registration order.
func (ms *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	for _, m := range ms.families() {
		fmt.Fprintf(cw, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(cw, "# TYPE %s %s\n", m.name, m.typ)
		m.collect(func(series string, v float64) {
			fmt.Fprintf(cw, "%s %s\n", series, formatValue(v))
		})
	}
	err := cw.w.(*bufio.Writer).Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

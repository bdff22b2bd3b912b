package bench

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/serve"
)

// The self-tests run in tier-1 (go test ./...): a few seconds, no
// daemons. They pin the arithmetic the benchmark's verdicts rest on.

func TestScheduleHashFollowsSeed(t *testing.T) {
	hash := func(seed uint64) string {
		fleet, err := baseFleet(seed)
		if err != nil {
			t.Fatal(err)
		}
		return ingestSchedule(fleet).SHA256
	}
	a, again, b := hash(1), hash(1), hash(2)
	if a != again {
		t.Errorf("same seed gave schedule hashes %s and %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 gave the same schedule hash %s", a)
	}

	d1, d1again, d2 := PoissonDues(7, 200, 100), PoissonDues(7, 200, 100), PoissonDues(8, 200, 100)
	for i := range d1 {
		if d1[i] != d1again[i] {
			t.Fatalf("same seed gave arrival %d at %v and %v", i, d1[i], d1again[i])
		}
		if i > 0 && d1[i] <= d1[i-1] {
			t.Fatalf("arrivals not increasing at %d: %v then %v", i, d1[i-1], d1[i])
		}
	}
	if d1[99] == d2[99] {
		t.Errorf("seeds 7 and 8 gave the same hundredth arrival %v", d1[99])
	}
	// 100 arrivals at 200/s take about half a second.
	if d1[99] < 300*time.Millisecond || d1[99] > 800*time.Millisecond {
		t.Errorf("100 arrivals at 200/s ended at %v, want about 500ms", d1[99])
	}
}

func TestSupportedTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := SupportedTail(c.n); got != c.want {
			t.Errorf("SupportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make(Latencies, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	s := xs.Summarize(90)
	if s.P50 != 50 || s.Tail != 90 || !s.Supported || s.N != 100 {
		t.Errorf("Summarize(90) of 1..100 = %+v, want p50 50, tail 90, supported", s)
	}
	if s := xs.Summarize(99); s.Tail != 99 || s.Supported {
		t.Errorf("Summarize(99) of 100 samples = %+v, want tail 99, unsupported", s)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median of 1..4 = %g, want 2.5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 40..60 is new
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 1, Name: "d", Start: 35, End: 38},  // wholly inside a∪b
		{ID: 6, Parent: 3, Name: "grandchild", Start: 45, End: 50},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 30, 3: 25, 4: 30, 5: 3, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestAdoptByContainment(t *testing.T) {
	spans := []Span{
		{ID: 1, Request: 1, Name: "router.ingest_bin", Start: 0, End: 50},
		{ID: 2, Name: "n1.ingest_bin", Start: 5, End: 20},
		{ID: 3, Name: "n2.ingest_bin", Start: 6, End: 45},
		{ID: 4, Name: "n2.health", Start: 10, End: 11},     // a probe: not a child kind
		{ID: 5, Name: "n1.ingest_bin", Start: 60, End: 70}, // inside no router span
		{ID: 6, Request: 6, Name: "router.ingest_bin", Start: 100, End: 150},
		{ID: 7, Name: "n1.ingest_bin", Start: 110, End: 120},
	}
	AdoptByContainment(spans,
		map[string]bool{"router.ingest_bin": true},
		map[string]bool{"n1.ingest_bin": true, "n2.ingest_bin": true})
	wantParent := []int{0, 1, 1, 0, 0, 0, 6}
	for i, w := range wantParent {
		if spans[i].Parent != w {
			t.Errorf("span %d adopted by %d, want %d", spans[i].ID, spans[i].Parent, w)
		}
	}
	if spans[6].Request != 6 {
		t.Errorf("adopted span did not inherit its parent's request: %d", spans[6].Request)
	}
	// Router self time: 50 minus the union 5..45 of its two legs.
	if self := SelfTimes(spans)[1]; self != 10 {
		t.Errorf("router self time = %d, want 10", self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = Quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("Quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	m := func(v float64, trials ...float64) Metric { return Metric{Value: v, Trials: trials} }
	for _, c := range []struct {
		name     string
		old, new Metric
		better   string
		bound    float64
		want     Verdict
	}{
		{"within bound", m(100, 99, 100, 101), m(105, 104, 105, 106), "lower", 0.10, Same},
		{"latency up past bound", m(100, 99, 100, 101), m(115, 114, 115, 116), "lower", 0.10, Worse},
		{"latency down past bound", m(100, 99, 100, 101), m(80, 79, 80, 81), "lower", 0.10, Better},
		{"throughput down past bound", m(100, 99, 100, 101), m(85, 84, 85, 86), "higher", 0.10, Worse},
		{"throughput up past bound", m(100, 99, 100, 101), m(120, 119, 120, 121), "higher", 0.10, Better},
		{"noisy and overlapping", m(100, 70, 100, 130), m(115, 85, 115, 145), "lower", 0.10, Unresolved},
		{"noisy but every new run better", m(100, 70, 100, 130), m(50, 40, 50, 60), "lower", 0.10, Better},
		{"noisy but every new run worse", m(100, 70, 100, 130), m(200, 140, 200, 260), "lower", 0.10, Worse},
		{"no trials recorded falls back to the medians", m(100), m(115), "lower", 0.10, Worse},
	} {
		if _, _, got := Judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	w, spread, _ := Judge(m(100, 90, 100, 110), m(90, 81, 90, 99), "higher", 0.25)
	if math.Abs(w-0.10) > 1e-12 {
		t.Errorf("a 10%% throughput drop reads as worsening %g, want +0.10", w)
	}
	if math.Abs(spread-0.20) > 1e-12 {
		t.Errorf("spread of 90,100,110 = %g, want 0.20", spread)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	outcome := func(v float64) *Outcome {
		return &Outcome{Metrics: map[string]Metric{"op_p50_ms": {Value: v, Unit: "ms"}}}
	}
	old := &Result{Host: HostFacts{NumCPU: 2, GoVersion: "go1.24.0"},
		Workloads: []WorkloadResult{{Name: "fleet_scan", Plain: outcome(100)}}}
	cur := &Result{Host: HostFacts{NumCPU: 4, GoVersion: "go1.24.0"},
		Workloads: []WorkloadResult{{Name: "fleet_scan", Plain: outcome(120)}}}
	if _, err := Compare(spec, old, cur, false); err == nil {
		t.Error("Compare accepted results from hosts with 2 and 4 CPUs")
	}
	rows, err := Compare(spec, old, cur, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Verdict != Worse || rows[0].Workload != "fleet_scan" {
		t.Errorf("forced comparison gave %+v, want one row reading worse", rows)
	}
}

func TestBacklogRule(t *testing.T) {
	window := 4 * time.Second
	n := [5]int{100, 100, 100, 100, 100}
	flat := [5]float64{200, 250, 220, 300, 280} // mean send delay 2–3 ms throughout
	if backlogGrowing(flat, n, window) {
		t.Error("a flat 2-3 ms send delay reads as a growing backlog")
	}
	burst := [5]float64{200, 250, 60000, 30000, 5000} // a stall that drained
	if backlogGrowing(burst, n, window) {
		t.Error("a drained burst reads as a growing backlog")
	}
	// Offered twice the capacity: the delay climbs by half of every
	// second, so ~1.4 s then ~1.8 s in the last two fifths.
	overload := [5]float64{20000, 60000, 100000, 140000, 180000}
	if !backlogGrowing(overload, n, window) {
		t.Error("a send delay climbing to 1.8 s of a 4 s window does not read as a growing backlog")
	}

	// The generator's own lateness counts only ops that found their
	// connection free.
	ops := []Op{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}}
	rs := []OpResult{
		{Op: &ops[0], Sent: 1 * time.Millisecond, idle: true},
		{Op: &ops[1], Sent: 12 * time.Millisecond, idle: true},
		{Op: &ops[2], Sent: 50 * time.Millisecond, idle: false}, // stalled behind a reply
	}
	rep := JudgeOpenLoop([][]OpResult{rs}, window, 99)
	if rep.LateP99MS != 2 || rep.LateP50MS != 1 {
		t.Errorf("lateness p50 %g p99 %g, want 1 and 2 (the stalled op does not count)", rep.LateP50MS, rep.LateP99MS)
	}
	if math.Abs(rep.StalledShare-1.0/3) > 1e-12 {
		t.Errorf("stalled share %g, want 1/3", rep.StalledShare)
	}
}

// TestReferenceWatchlistAgainstRank holds the benchmark's reference
// watchlist — one record at a time through Predictor.ScoreRecord, its
// own sort — against the daemon's block scorer and serve.Rank on a
// store of about a thousand drives.
func TestReferenceWatchlistAgainstRank(t *testing.T) {
	study, err := core.GenerateStudy(11, 40)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := forest.DefaultConfig()
	fcfg.Trees = 10
	fcfg.Seed = 11
	trained, err := study.TrainPredictor(core.PredictorOptions{Lookahead: ModelLookahead, Factory: forest.NewFactory(fcfg), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := trained.Save(path); err != nil {
		t.Fatal(err)
	}
	pred, err := loadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}

	// A day range in which most of the 120 base drives report, cloned
	// ten times: some drives get two reports, some one.
	day := study.Fleet.Horizon / 2
	recs := DayMajor(study.Fleet, 0, 10, day, day+1)
	store := serve.NewStore(0, 0)
	sent := NewSent()
	for _, r := range recs {
		if err := store.Upsert(r.ID, r.Model, *r.Day); err != nil {
			t.Fatal(err)
		}
	}
	sent.Add(recs)
	if sent.Drives() < 500 || sent.Drives() != store.Len() {
		t.Fatalf("%d drives sent, %d in the store; want the same, at least 500", sent.Drives(), store.Len())
	}

	scored := serve.NewScorer(2).Score(pred, store.ScoreUnits(0))
	median := append([]serve.Scored(nil), scored...)
	serve.Rank(median, 0, 0)
	mid := median[len(median)/2].Score
	for _, c := range []struct {
		threshold float64
		k         int
	}{{0, 50}, {0, 0}, {mid, 20}, {2, 50}} {
		items := append([]serve.Scored(nil), scored...)
		want := serve.Rank(items, c.threshold, c.k)
		got := ReferenceWatchlist(pred, sent, c.threshold, c.k)
		if len(got) != len(want) {
			t.Errorf("threshold %g k %d: reference has %d entries, Rank %d", c.threshold, c.k, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Errorf("threshold %g k %d: entry %d is drive %d score %v, Rank has drive %d score %v",
					c.threshold, c.k, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				break
			}
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the code that prints the
// metrics it declares from drifting apart.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := ReadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics := func(kind string, got []SpecMetric, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the code %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, got[i].Name, got[i].Better)
			}
		}
	}
	sameMetrics("end-to-end", spec.EndToEnd, EndToEnd)
	sameMetrics("per-layer", spec.PerLayer, PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

package dataset

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/rng"
	"ssdfail/internal/trace"
)

// smallFleet builds a deterministic two-drive fleet: drive 0 fails on
// day 14 (swap day 16), drive 1 never fails.
func smallFleet() (*trace.Fleet, *failure.Analysis) {
	mk := func(id uint32, days []int32, active map[int32]bool, swaps ...int32) trace.Drive {
		d := trace.Drive{ID: id, Model: trace.MLCA}
		first := days[0]
		var cumW uint64
		for _, day := range days {
			rec := trace.DayRecord{Day: day, Age: day - first}
			if active[day] {
				rec.Reads, rec.Writes = 50, 100
				cumW += 100
			}
			rec.CumWrites = cumW
			rec.Errors[trace.ErrUncorrectable] = uint32(day % 3)
			rec.CumErrors[trace.ErrUncorrectable] = uint64(day * 2)
			d.Days = append(d.Days, rec)
		}
		for _, s := range swaps {
			d.Swaps = append(d.Swaps, trace.SwapEvent{Day: s})
		}
		return d
	}
	allActive := map[int32]bool{10: true, 11: true, 12: true, 13: true, 14: true, 15: false, 20: true, 21: true}
	d0 := mk(1, []int32{10, 11, 12, 13, 14, 15}, allActive, 16)
	d1 := mk(2, []int32{10, 11, 12, 13, 14, 20, 21}, allActive)
	f := &trace.Fleet{Horizon: 100, Drives: []trace.Drive{d0, d1}}
	return f, failure.Analyze(f)
}

func TestFeatureNamesComplete(t *testing.T) {
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("names = %d, want %d", len(names), NumFeatures)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Errorf("feature %d has no name", i)
		}
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	if names[FDriveAge] != "drive age" {
		t.Errorf("FDriveAge name = %q", names[FDriveAge])
	}
	if names[FCumErrBase+int(trace.ErrUncorrectable)] != "cum uncorrectable error" {
		t.Errorf("cum UE name = %q", names[FCumErrBase+int(trace.ErrUncorrectable)])
	}
}

func TestExtractLabelsLookahead1(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 1, AgeMax: -1})
	// Drive 0 fail day = 14 (last active before swap 16). With N=1 only
	// day 14 is positive. Day 15 is inside the non-op window -> dropped.
	// Drive 1 contributes 7 negative rows.
	if m.Len() != 5+7 {
		t.Fatalf("rows = %d, want 12", m.Len())
	}
	if got := m.Positives(); got != 1 {
		t.Fatalf("positives = %d, want 1", got)
	}
	for i := 0; i < m.Len(); i++ {
		if m.Y[i] == 1 && (m.DriveIdx[i] != 0 || m.Day[i] != 14) {
			t.Errorf("positive row at drive %d day %d", m.DriveIdx[i], m.Day[i])
		}
	}
}

func TestExtractLabelsLookahead3(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 3, AgeMax: -1})
	// Days 12, 13, 14 of drive 0 are positive (fail day - day < 3).
	if got := m.Positives(); got != 3 {
		t.Fatalf("positives = %d, want 3", got)
	}
	for i := 0; i < m.Len(); i++ {
		want := int8(0)
		if m.DriveIdx[i] == 0 && m.Day[i] >= 12 && m.Day[i] <= 14 {
			want = 1
		}
		if m.Y[i] != want {
			t.Errorf("day %d drive %d: label %d, want %d", m.Day[i], m.DriveIdx[i], m.Y[i], want)
		}
	}
}

func TestExtractFeatureValues(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 1, AgeMax: -1})
	// Find drive 0 day 12.
	for i := 0; i < m.Len(); i++ {
		if m.DriveIdx[i] == 0 && m.Day[i] == 12 {
			x := m.Row(i)
			if x[FWriteCount] != 100 {
				t.Errorf("write count = %v", x[FWriteCount])
			}
			if x[FCumWriteCount] != 300 {
				t.Errorf("cum write count = %v", x[FCumWriteCount])
			}
			if x[FDriveAge] != 2 {
				t.Errorf("drive age = %v", x[FDriveAge])
			}
			if x[FErrBase+int(trace.ErrUncorrectable)] != 0 {
				t.Errorf("daily UE = %v", x[FErrBase+int(trace.ErrUncorrectable)])
			}
			if x[FCumErrBase+int(trace.ErrUncorrectable)] != 24 {
				t.Errorf("cum UE = %v", x[FCumErrBase+int(trace.ErrUncorrectable)])
			}
			return
		}
	}
	t.Fatal("row for drive 0 day 12 not found")
}

func TestExtractIncludeDrive(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 1, AgeMax: -1,
		IncludeDrive: func(di int) bool { return di == 1 }})
	for i := 0; i < m.Len(); i++ {
		if m.DriveIdx[i] != 1 {
			t.Fatalf("row from excluded drive %d", m.DriveIdx[i])
		}
	}
	if m.Positives() != 0 {
		t.Error("drive 1 has no failures")
	}
}

func TestExtractAgeBand(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 1, AgeMin: 2, AgeMax: 4})
	for i := 0; i < m.Len(); i++ {
		if m.Age[i] < 2 || m.Age[i] > 4 {
			t.Fatalf("row age %d outside [2,4]", m.Age[i])
		}
	}
	if m.Len() == 0 {
		t.Fatal("age band dropped everything")
	}
}

func TestExtractNegativeSampling(t *testing.T) {
	f, an := smallFleet()
	full := Extract(f, an, Options{Lookahead: 1, AgeMax: -1})
	half := Extract(f, an, Options{Lookahead: 1, AgeMax: -1, NegativeSampleProb: 0.5, Seed: 3})
	if half.Positives() != full.Positives() {
		t.Error("sampling must keep all positives")
	}
	if half.Len() >= full.Len() {
		t.Error("sampling did not reduce rows")
	}
	// Deterministic given the seed.
	again := Extract(f, an, Options{Lookahead: 1, AgeMax: -1, NegativeSampleProb: 0.5, Seed: 3})
	if again.Len() != half.Len() {
		t.Error("sampling not deterministic")
	}
}

func TestDownsample(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 3, AgeMax: -1}) // 3 pos, 9 neg
	ds := Downsample(m, 1.0, 7)
	if ds.Positives() != 3 {
		t.Errorf("downsample lost positives: %d", ds.Positives())
	}
	neg := ds.Len() - ds.Positives()
	if neg > 7 {
		t.Errorf("negatives after 1:1 downsample = %d", neg)
	}
	// Ratio >= all negatives keeps everything.
	if got := Downsample(m, 100, 7); got.Len() != m.Len() {
		t.Error("oversized ratio should keep all rows")
	}
	// All-positive and all-negative inputs pass through.
	onlyPos := m.Subset([]int{0, 1})
	if got := Downsample(onlyPos, 1, 7); got.Len() != 2 {
		t.Error("degenerate input should pass through")
	}
}

func TestSubset(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 1, AgeMax: -1})
	sub := m.Subset([]int{0, 2})
	if sub.Len() != 2 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	for f := 0; f < NumFeatures; f++ {
		if sub.Row(1)[f] != m.Row(2)[f] {
			t.Fatalf("subset row mismatch at feature %d", f)
		}
	}
	if sub.Day[1] != m.Day[2] || sub.DriveIdx[1] != m.DriveIdx[2] {
		t.Error("subset provenance mismatch")
	}
	// Every column is allocated once, at its final size.
	if cap(sub.X) != len(sub.X) || cap(sub.Y) != len(sub.Y) || cap(sub.DriveIdx) != len(sub.DriveIdx) ||
		cap(sub.Day) != len(sub.Day) || cap(sub.Age) != len(sub.Age) {
		t.Errorf("subset columns have spare capacity: X %d/%d Y %d/%d DriveIdx %d/%d Day %d/%d Age %d/%d",
			len(sub.X), cap(sub.X), len(sub.Y), cap(sub.Y), len(sub.DriveIdx), cap(sub.DriveIdx),
			len(sub.Day), cap(sub.Day), len(sub.Age), cap(sub.Age))
	}
}

func TestFoldsBalancedAndDeterministic(t *testing.T) {
	folds := Folds(103, 5, 42)
	if len(folds) != 103 {
		t.Fatalf("len = %d", len(folds))
	}
	counts := make([]int, 5)
	for _, f := range folds {
		if f < 0 || f >= 5 {
			t.Fatalf("fold %d out of range", f)
		}
		counts[f]++
	}
	for k, c := range counts {
		if c < 20 || c > 21 {
			t.Errorf("fold %d has %d drives", k, c)
		}
	}
	again := Folds(103, 5, 42)
	for i := range folds {
		if folds[i] != again[i] {
			t.Fatal("folds not deterministic")
		}
	}
	other := Folds(103, 5, 43)
	same := true
	for i := range folds {
		if folds[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical folds")
	}
}

func TestScaler(t *testing.T) {
	f, an := smallFleet()
	m := Extract(f, an, Options{Lookahead: 1, AgeMax: -1})
	s := FitScaler(m)
	scaled := s.Apply(m)
	// Column means ~0 and stds ~1 for non-constant features.
	for feat := 0; feat < NumFeatures; feat++ {
		var mean float64
		for i := 0; i < scaled.Len(); i++ {
			mean += scaled.Row(i)[feat]
		}
		mean /= float64(scaled.Len())
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d mean after scaling = %v", feat, mean)
		}
	}
	// Original is untouched.
	if m.Row(0)[FDriveAge] != 0 && scaled.Row(0)[FDriveAge] == m.Row(0)[FDriveAge] {
		t.Error("Apply mutated the original")
	}
}

func TestScalerEmptyAndConstant(t *testing.T) {
	empty := &Matrix{}
	s := FitScaler(empty)
	for f := range s.Std {
		if s.Std[f] != 1 {
			t.Fatal("empty scaler should have unit stds")
		}
	}
	row := make([]float64, NumFeatures)
	s.Transform(row) // must not panic or divide by zero
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("transform produced non-finite value")
		}
	}
}

func TestNonOpWindowRowsExcluded(t *testing.T) {
	// Generate a real fleet and verify no emitted row falls in a
	// reconstructed non-operational window.
	fleet, an := oracleFleet(t)
	m := Extract(fleet, an, Options{Lookahead: 2, AgeMax: -1})
	for i := 0; i < m.Len(); i++ {
		di := int(m.DriveIdx[i])
		for _, ei := range an.PerDrive[di] {
			e := an.Events[ei]
			if m.Day[i] > e.FailDay && (e.ReturnDay < 0 || m.Day[i] < e.ReturnDay) {
				t.Fatalf("row at drive %d day %d lies in non-op window (%d, %d)",
					di, m.Day[i], e.FailDay, e.ReturnDay)
			}
		}
	}
	if m.Positives() == 0 {
		t.Error("expected some positive rows from a real fleet")
	}
}

// Property: labels agree with a brute-force re-derivation.
func TestLabelConsistencyProperty(t *testing.T) {
	cfg := fleetsim.DefaultConfig(11, 25)
	cfg.HorizonDays = 700
	cfg.EarlyWindow = 200
	fleet, _, err := fleetsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an := failure.Analyze(fleet)
	failDays := an.FailDaysByDrive()
	prop := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		m := Extract(fleet, an, Options{Lookahead: n, AgeMax: -1})
		for i := 0; i < m.Len(); i++ {
			want := int8(0)
			for _, fd := range failDays[m.DriveIdx[i]] {
				if fd >= m.Day[i] && fd-m.Day[i] < int32(n) {
					want = 1
				}
			}
			if m.Y[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// extractAppending is the one-pass extraction Extract replaced: it grows
// every column row by row. It is the reference the two-pass Extract must
// reproduce byte for byte.
func extractAppending(f *trace.Fleet, an *failure.Analysis, o Options) *Matrix {
	if o.Lookahead < 1 {
		o.Lookahead = 1
	}
	m := &Matrix{}
	rng := rng.New(o.Seed ^ 0x5ca1ab1e)
	keepNeg := o.NegativeSampleProb > 0 && o.NegativeSampleProb < 1
	for di := range f.Drives {
		if o.IncludeDrive != nil && !o.IncludeDrive(di) {
			continue
		}
		d := &f.Drives[di]
		events := an.PerDrive[di]
		var prev *trace.DayRecord
		ei := 0
		for j := range d.Days {
			r := &d.Days[j]
			for ei < len(events) && an.Events[events[ei]].FailDay < r.Day {
				ei++
			}
			if inNonOpWindow(an, events, r.Day) || r.Age < o.AgeMin || (o.AgeMax >= 0 && r.Age > o.AgeMax) {
				prev = r
				continue
			}
			var label int8
			if ei < len(events) && an.Events[events[ei]].FailDay-r.Day < int32(o.Lookahead) {
				label = 1
			}
			if label == 0 && keepNeg && !rng.Bernoulli(o.NegativeSampleProb) {
				prev = r
				continue
			}
			m.appendRow(int32(di), r, prev, label)
			prev = r
		}
	}
	return m
}

// oracleFleet is a generated fleet large enough that every extraction
// option keeps and drops rows.
func oracleFleet(t *testing.T) (*trace.Fleet, *failure.Analysis) {
	t.Helper()
	cfg := fleetsim.DefaultConfig(5, 60)
	cfg.HorizonDays = 900
	cfg.EarlyWindow = 250
	fleet, _, err := fleetsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, failure.Analyze(fleet)
}

// TestExtractMatchesAppendingOracle holds the two-pass Extract to the
// one-pass appending extraction across the option space, bit for bit,
// and requires every column to be allocated at exactly its final size.
func TestExtractMatchesAppendingOracle(t *testing.T) {
	fleet, an := oracleFleet(t)
	folds := Folds(len(fleet.Drives), 5, 3)
	cases := map[string]Options{
		"lookahead 1": {Lookahead: 1, AgeMax: -1},
		"lookahead 7": {Lookahead: 7, AgeMax: -1},
		"neg 0.2":     {Lookahead: 7, AgeMax: -1, NegativeSampleProb: 0.2, Seed: 11},
		"neg 1":       {Lookahead: 1, AgeMax: -1, NegativeSampleProb: 1, Seed: 11},
		"fold filter": {Lookahead: 1, AgeMax: -1, NegativeSampleProb: 0.2, Seed: 5, IncludeDrive: func(di int) bool { return folds[di] != 2 }},
		"age band":    {Lookahead: 7, AgeMin: 30, AgeMax: 400, NegativeSampleProb: 0.2, Seed: 5},
	}
	for name, o := range cases {
		t.Run(name, func(t *testing.T) {
			want, got := extractAppending(fleet, an, o), Extract(fleet, an, o)
			if want.Len() == 0 {
				t.Fatal("oracle extracted no rows")
			}
			if got.Width != want.Width || !slices.Equal(got.Y, want.Y) || !slices.Equal(got.DriveIdx, want.DriveIdx) ||
				!slices.Equal(got.Day, want.Day) || !slices.Equal(got.Age, want.Age) {
				t.Fatalf("width, labels or provenance differ from the appending oracle (%d vs %d rows)", got.Len(), want.Len())
			}
			if len(got.X) != len(want.X) {
				t.Fatalf("X has %d values, oracle %d", len(got.X), len(want.X))
			}
			for i := range want.X {
				if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
					t.Fatalf("X[%d] = %v, oracle %v", i, got.X[i], want.X[i])
				}
			}
			if cap(got.X) != len(got.X) || cap(got.Y) != len(got.Y) || cap(got.DriveIdx) != len(got.DriveIdx) ||
				cap(got.Day) != len(got.Day) || cap(got.Age) != len(got.Age) {
				t.Errorf("columns have spare capacity: X %d/%d Y %d/%d DriveIdx %d/%d Day %d/%d Age %d/%d",
					len(got.X), cap(got.X), len(got.Y), cap(got.Y), len(got.DriveIdx), cap(got.DriveIdx),
					len(got.Day), cap(got.Day), len(got.Age), cap(got.Age))
			}
		})
	}
}

// TestExtractAllocations pins Extract's allocation count: the matrix,
// its five columns and the two walks' RNGs, whatever the row count. A
// column grown row by row would take dozens of allocations here.
func TestExtractAllocations(t *testing.T) {
	fleet, an := oracleFleet(t)
	o := Options{Lookahead: 7, AgeMax: -1}
	if rows := Extract(fleet, an, o).Len(); rows < 10000 {
		t.Fatalf("fixture extracts only %d rows", rows)
	}
	if allocs := testing.AllocsPerRun(3, func() { Extract(fleet, an, o) }); allocs > 10 {
		t.Errorf("Extract allocates %v times per call, want at most 10", allocs)
	}
}

// TestAppendFeatureRowReusesCapacity checks that a row written over
// capacity left behind by Reset carries no stale values.
func TestAppendFeatureRowReusesCapacity(t *testing.T) {
	f, _ := smallFleet()
	r := &f.Drives[0].Days[2]
	var fresh Matrix
	fresh.AppendFeatureRow(r, nil)

	reused := Matrix{X: make([]float64, NumFeatures)}
	for i := range reused.X {
		reused.X[i] = math.NaN()
	}
	reused.Reset()
	reused.AppendFeatureRow(r, nil)
	for i, v := range fresh.X {
		if math.Float64bits(reused.X[i]) != math.Float64bits(v) {
			t.Fatalf("feature %d = %v on reused capacity, %v fresh", i, reused.X[i], v)
		}
	}
}

// BenchmarkExtract builds one base matrix of the train_grid benchmark:
// its fleet, one lookahead, negatives thinned as the grid thins them.
func BenchmarkExtract(b *testing.B) {
	cfg := fleetsim.DefaultConfig(1, 150) // the train_grid fleet
	fleet, _, err := fleetsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	an := failure.Analyze(fleet)
	o := Options{Lookahead: 1, AgeMax: -1, NegativeSampleProb: 0.2, Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(fleet, an, o)
	}
}

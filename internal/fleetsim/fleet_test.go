package fleetsim

import (
	"bytes"
	"crypto/sha256"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ssdfail/internal/trace"
)

// testConfig returns a small fleet for fast tests: 3 models x drives,
// ~3-year horizon.
func testConfig(seed uint64, drives int) FleetConfig {
	cfg := DefaultConfig(seed, drives)
	cfg.HorizonDays = 1100
	cfg.EarlyWindow = 300
	return cfg
}

func TestGenerateValidates(t *testing.T) {
	cfg := testConfig(1, 40)
	fleet, truth, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := len(fleet.Drives); got != 120 {
		t.Fatalf("drive count = %d, want 120", got)
	}
	if len(truth.Drives) != 120 {
		t.Fatalf("truth count = %d", len(truth.Drives))
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid: %v", err)
	}
	counts := fleet.CountByModel()
	for _, m := range trace.Models {
		if counts[m] != 40 {
			t.Errorf("model %v count = %d, want 40", m, counts[m])
		}
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	cfg1 := testConfig(99, 30)
	cfg1.Workers = 1
	f1, t1, err := Generate(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := testConfig(99, 30)
	cfg8.Workers = 8
	f8, t8, err := Generate(cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f8) {
		t.Error("fleet differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(t1, t8) {
		t.Error("truth differs between 1 and 8 workers")
	}
}

// TestGenerateByteIdenticalAcrossGOMAXPROCS is the strongest form of
// the determinism contract: the same seed must produce a byte-identical
// serialized fleet whether the runtime schedules generation on one OS
// thread or all of them. DeepEqual across Workers settings (above)
// can't see scheduler-dependent effects inside the default worker pool;
// hashing the wire bytes under different GOMAXPROCS can.
func TestGenerateByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	generate := func(procs int) []byte {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg := testConfig(1234, 25)
		cfg.Workers = 0 // resolve to all CPUs, i.e. whatever GOMAXPROCS says
		fleet, _, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate at GOMAXPROCS=%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, fleet); err != nil {
			t.Fatalf("WriteBinary at GOMAXPROCS=%d: %v", procs, err)
		}
		return buf.Bytes()
	}

	serial := generate(1)
	parallel := generate(runtime.NumCPU())
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("serialized fleet differs across GOMAXPROCS: sha256 %x (1 proc, %d bytes) vs %x (%d procs, %d bytes)",
			sha256.Sum256(serial), len(serial),
			sha256.Sum256(parallel), runtime.NumCPU(), len(parallel))
	}
}

// TestGenerateDaysExactAndUnshared pins the exact-size copy out of the
// pooled per-goroutine scratch: every drive's Days has no spare
// capacity, and no two drives share backing memory — a write through
// one drive's Days is seen by no other drive.
func TestGenerateDaysExactAndUnshared(t *testing.T) {
	cfg := testConfig(7, 30)
	cfg.Workers = 4
	fleet, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fleet.Drives {
		d := &fleet.Drives[i]
		if cap(d.Days) != len(d.Days) {
			t.Fatalf("drive %d: Days len %d cap %d", d.ID, len(d.Days), cap(d.Days))
		}
		for j := range d.Days {
			d.Days[j].Day = -int32(i) - 1
		}
	}
	for i := range fleet.Drives {
		for _, r := range fleet.Drives[i].Days {
			if r.Day != -int32(i)-1 {
				t.Fatalf("drive %d holds a record written through drive %d's Days", i, -r.Day-1)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	f1, _, err := Generate(testConfig(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := Generate(testConfig(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(f1, f2) {
		t.Error("different seeds produced identical fleets")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []func(*FleetConfig){
		func(c *FleetConfig) { c.HorizonDays = 10 },
		func(c *FleetConfig) { c.Models = nil },
		func(c *FleetConfig) { c.EarlyFrac = 1.5 },
		func(c *FleetConfig) { c.EarlyWindow = c.HorizonDays },
		func(c *FleetConfig) { c.Models[0].Drives = -1 },
		func(c *FleetConfig) { c.Models[0].ReportProb = 2 },
		func(c *FleetConfig) { c.Models[0].WritesPerPECycle = 0 },
		func(c *FleetConfig) { c.Models[0].SwapWithin1Prob = 0.9; c.Models[0].SwapWeekProb = 0.9 },
	}
	for i, mutate := range bad {
		cfg := testConfig(1, 5)
		mutate(&cfg)
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted invalid config", i)
		}
	}
}

// bigTestFleet is shared by the statistical-shape tests below.
var bigFleet *trace.Fleet
var bigTruth *Truth

func getBigFleet(t *testing.T) (*trace.Fleet, *Truth) {
	t.Helper()
	if bigFleet == nil {
		cfg := DefaultConfig(7, 250) // full six-year horizon
		f, tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bigFleet, bigTruth = f, tr
	}
	return bigFleet, bigTruth
}

func TestFailureIncidenceBands(t *testing.T) {
	fleet, _ := getBigFleet(t)
	// Paper Table 3: MLC-A 6.95%, MLC-B 14.3%, MLC-D 12.5% of drives
	// swapped at least once. Allow generous bands for a 250-drive sample.
	bands := map[trace.Model][2]float64{
		trace.MLCA: {0.02, 0.13},
		trace.MLCB: {0.07, 0.23},
		trace.MLCD: {0.06, 0.21},
	}
	for _, m := range trace.Models {
		sub := fleet.FilterModel(m)
		failed := 0
		for i := range sub.Drives {
			if sub.Drives[i].Failed() {
				failed++
			}
		}
		frac := float64(failed) / float64(len(sub.Drives))
		if b := bands[m]; frac < b[0] || frac > b[1] {
			t.Errorf("%v failed fraction = %.3f, want in [%.2f, %.2f]", m, frac, b[0], b[1])
		}
	}
	// Ordering: MLC-A must fail least, as in the paper.
	fracOf := func(m trace.Model) float64 {
		sub := fleet.FilterModel(m)
		failed := 0
		for i := range sub.Drives {
			if sub.Drives[i].Failed() {
				failed++
			}
		}
		return float64(failed) / float64(len(sub.Drives))
	}
	if fracOf(trace.MLCA) >= fracOf(trace.MLCB) {
		t.Errorf("MLC-A failure rate should be below MLC-B")
	}
}

func TestInfantMortalityShare(t *testing.T) {
	_, truth := getBigFleet(t)
	young, total := 0, 0
	for i := range truth.Drives {
		for _, f := range truth.Drives[i].Failures {
			total++
			if f.AgeAtFailure <= 90 {
				young++
			}
		}
	}
	if total < 30 {
		t.Fatalf("too few failures to test: %d", total)
	}
	frac := float64(young) / float64(total)
	// Paper: ~25% of failures within 90 days (Figure 6).
	if frac < 0.12 || frac > 0.45 {
		t.Errorf("infant failure share = %.3f, want ~0.25", frac)
	}
}

func TestAsymptomaticFailures(t *testing.T) {
	fleet, truth := getBigFleet(t)
	// Paper §4.2: 26% of failures occur on drives with no non-transparent
	// errors and no grown bad blocks.
	clean, total := 0, 0
	for i := range truth.Drives {
		if len(truth.Drives[i].Failures) == 0 {
			continue
		}
		total++
		d := &fleet.Drives[i]
		last := d.Last()
		if last == nil {
			continue
		}
		if last.CumNonTransparentErrors() == 0 && last.GrownBadBlocks == 0 {
			clean++
		}
	}
	if total < 30 {
		t.Fatalf("too few failed drives: %d", total)
	}
	frac := float64(clean) / float64(total)
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("asymptomatic failed-drive share = %.3f, want ~0.26", frac)
	}
}

func TestCorrectableErrorIncidence(t *testing.T) {
	fleet, _ := getBigFleet(t)
	days, withCorr := 0, 0
	withUE := 0
	for i := range fleet.Drives {
		for j := range fleet.Drives[i].Days {
			r := &fleet.Drives[i].Days[j]
			days++
			if r.Errors[trace.ErrCorrectable] > 0 {
				withCorr++
			}
			if r.Errors[trace.ErrUncorrectable] > 0 {
				withUE++
			}
		}
	}
	corrFrac := float64(withCorr) / float64(days)
	ueFrac := float64(withUE) / float64(days)
	// Paper Table 1: correctable ~0.77-0.83, uncorrectable ~0.0022-0.0026.
	if corrFrac < 0.65 || corrFrac > 0.92 {
		t.Errorf("correctable day incidence = %.3f, want ~0.8", corrFrac)
	}
	if ueFrac < 0.0008 || ueFrac > 0.008 {
		t.Errorf("uncorrectable day incidence = %.5f, want ~0.0024", ueFrac)
	}
}

func TestFinalReadCoupledToUE(t *testing.T) {
	fleet, _ := getBigFleet(t)
	frWithoutUE := 0
	frTotal := 0
	for i := range fleet.Drives {
		for j := range fleet.Drives[i].Days {
			r := &fleet.Drives[i].Days[j]
			if r.Errors[trace.ErrFinalRead] > 0 {
				frTotal++
				if r.Errors[trace.ErrUncorrectable] == 0 {
					frWithoutUE++
				}
			}
		}
	}
	if frTotal == 0 {
		t.Fatal("no final read errors generated")
	}
	if frWithoutUE > 0 {
		t.Errorf("%d/%d final-read days lack a UE; they should be coupled", frWithoutUE, frTotal)
	}
}

func TestYoungDrivesWriteLess(t *testing.T) {
	fleet, _ := getBigFleet(t)
	var youngSum, youngN, matureSum, matureN float64
	for i := range fleet.Drives {
		for j := range fleet.Drives[i].Days {
			r := &fleet.Drives[i].Days[j]
			if !r.Active() {
				continue
			}
			if r.Age < 60 {
				youngSum += float64(r.Writes)
				youngN++
			} else if r.Age > 400 {
				matureSum += float64(r.Writes)
				matureN++
			}
		}
	}
	if youngN == 0 || matureN == 0 {
		t.Fatal("missing age strata")
	}
	if youngSum/youngN >= matureSum/matureN {
		t.Errorf("young drives should write less: young=%.3g mature=%.3g",
			youngSum/youngN, matureSum/matureN)
	}
}

func TestPEFailureDecoupling(t *testing.T) {
	fleet, truth := getBigFleet(t)
	// Paper Figure 8: ~98% of failures occur below 1500 P/E cycles.
	below := 0
	total := 0
	for i := range truth.Drives {
		for _, ft := range truth.Drives[i].Failures {
			d := &fleet.Drives[i]
			idx := d.RecordOn(ft.FailDay)
			if idx < 0 {
				idx = d.LastRecordBefore(ft.FailDay)
			}
			if idx < 0 {
				continue
			}
			total++
			if d.Days[idx].PECycles < 1500 {
				below++
			}
		}
	}
	if total < 30 {
		t.Fatalf("too few failures with records: %d", total)
	}
	if frac := float64(below) / float64(total); frac < 0.80 {
		t.Errorf("failures below 1500 P/E = %.3f, want >= 0.80", frac)
	}
}

func TestSwapPipelineShape(t *testing.T) {
	fleet, truth := getBigFleet(t)
	// Ground-truth swap day minus fail day: ~20% within 1 day, most
	// within a week, long tail beyond 100 days (Figure 4).
	var within1, within7, beyond50, n int
	for i := range truth.Drives {
		for _, ft := range truth.Drives[i].Failures {
			if ft.SwapDay < 0 {
				continue
			}
			gap := ft.SwapDay - ft.FailDay
			n++
			if gap <= 1 {
				within1++
			}
			if gap <= 7 {
				within7++
			}
			if gap > 50 {
				beyond50++
			}
		}
	}
	if n < 30 {
		t.Fatalf("too few observed swaps: %d", n)
	}
	if f := float64(within1) / float64(n); f < 0.08 || f > 0.40 {
		t.Errorf("swaps within 1 day = %.3f, want ~0.20", f)
	}
	if f := float64(within7) / float64(n); f < 0.60 || f > 0.95 {
		t.Errorf("swaps within 7 days = %.3f, want ~0.80", f)
	}
	if beyond50 == 0 {
		t.Error("expected a long tail of non-operational periods")
	}
	_ = fleet
}

func TestRepairCensoring(t *testing.T) {
	_, truth := getBigFleet(t)
	// About half of swapped drives never re-enter (Figure 5 / Table 5).
	returned, swapped := 0, 0
	for i := range truth.Drives {
		for _, ft := range truth.Drives[i].Failures {
			if ft.SwapDay < 0 {
				continue
			}
			swapped++
			if ft.ReturnDay >= 0 {
				returned++
			}
		}
	}
	if swapped < 30 {
		t.Fatalf("too few swaps: %d", swapped)
	}
	frac := float64(returned) / float64(swapped)
	if frac < 0.25 || frac > 0.75 {
		t.Errorf("returned fraction = %.3f, want ~0.5", frac)
	}
}

func TestRepeatFailures(t *testing.T) {
	_, truth := getBigFleet(t)
	multi, failedDrives := 0, 0
	for i := range truth.Drives {
		n := len(truth.Drives[i].Failures)
		if n >= 1 {
			failedDrives++
		}
		if n >= 2 {
			multi++
		}
	}
	if failedDrives == 0 {
		t.Fatal("no failed drives")
	}
	// Paper Table 4: ~10% of failed drives fail more than once.
	frac := float64(multi) / float64(failedDrives)
	if frac > 0.35 {
		t.Errorf("repeat-failure share = %.3f, unexpectedly high", frac)
	}
}

func TestSymptomRampRaisesPreFailureErrors(t *testing.T) {
	fleet, truth := getBigFleet(t)
	// P(UE in last 2 days before failure) should be well above the
	// baseline UE day-incidence (Figure 11).
	var lastDaysUE, lastDaysN float64
	for i := range truth.Drives {
		d := &fleet.Drives[i]
		for _, ft := range truth.Drives[i].Failures {
			for off := int32(0); off < 2; off++ {
				idx := d.RecordOn(ft.FailDay - off)
				if idx < 0 {
					continue
				}
				lastDaysN++
				if d.Days[idx].Errors[trace.ErrUncorrectable] > 0 {
					lastDaysUE++
				}
			}
		}
	}
	if lastDaysN < 30 {
		t.Fatalf("too few pre-failure days: %v", lastDaysN)
	}
	rate := lastDaysUE / lastDaysN
	if rate < 0.08 {
		t.Errorf("pre-failure UE day rate = %.3f, want >> baseline ~0.002", rate)
	}
}

func TestTruthConsistentWithSwaps(t *testing.T) {
	fleet, truth := getBigFleet(t)
	for i := range truth.Drives {
		d := &fleet.Drives[i]
		observed := 0
		for _, ft := range truth.Drives[i].Failures {
			if ft.SwapDay >= 0 {
				if d.RecordOn(ft.FailDay) < 0 && d.LastRecordBefore(ft.FailDay) < 0 {
					t.Errorf("drive %d: failure at %d has no records at or before it", d.ID, ft.FailDay)
				}
				observed++
			}
			if ft.ReturnDay >= 0 && ft.SwapDay < 0 {
				t.Errorf("drive %d: return without swap", d.ID)
			}
		}
		if observed != len(d.Swaps) {
			t.Errorf("drive %d: %d truth swaps vs %d trace swaps", d.ID, observed, len(d.Swaps))
		}
	}
}

func TestFailDayIsLastActiveDay(t *testing.T) {
	fleet, truth := getBigFleet(t)
	// All recorded days strictly after a failure and before the swap
	// must be inactive (zero reads/writes).
	for i := range truth.Drives {
		d := &fleet.Drives[i]
		for _, ft := range truth.Drives[i].Failures {
			end := ft.SwapDay
			if end < 0 {
				end = math.MaxInt32
			}
			for j := range d.Days {
				r := &d.Days[j]
				if r.Day > ft.FailDay && int32(r.Day) < end && r.Active() {
					t.Fatalf("drive %d: active day %d inside non-operational period (fail %d, swap %d)",
						d.ID, r.Day, ft.FailDay, ft.SwapDay)
				}
			}
		}
	}
}

// BenchmarkGenerate simulates the train_grid benchmark's fleet: 150
// drives per model over the default horizon.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(1, 150)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

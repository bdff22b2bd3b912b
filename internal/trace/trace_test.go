package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestModelString(t *testing.T) {
	cases := map[Model]string{MLCA: "MLC-A", MLCB: "MLC-B", MLCD: "MLC-D"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Model(%d).String() = %q, want %q", m, got, want)
		}
	}
	if got := Model(9).String(); !strings.Contains(got, "?") {
		t.Errorf("invalid model should stringify with ?, got %q", got)
	}
}

func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseModel(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseModel("MLC-Z"); err == nil {
		t.Error("ParseModel should reject unknown models")
	}
}

func TestErrorKindStringRoundTrip(t *testing.T) {
	for _, k := range ErrorKinds {
		got, err := ParseErrorKind(k.String())
		if err != nil {
			t.Fatalf("ParseErrorKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseErrorKind("bogus"); err == nil {
		t.Error("ParseErrorKind should reject unknown names")
	}
}

func TestTransparentPartition(t *testing.T) {
	if len(TransparentKinds)+len(NonTransparentKinds) != NumErrorKinds {
		t.Fatalf("partition sizes %d + %d != %d",
			len(TransparentKinds), len(NonTransparentKinds), NumErrorKinds)
	}
	// §2: correctable, read, write and erase errors are transparent to
	// the user; every other kind is non-transparent. Each kind is on
	// exactly one side.
	transparent := map[ErrorKind]bool{ErrCorrectable: true, ErrRead: true, ErrWrite: true, ErrErase: true}
	seen := map[ErrorKind]int{}
	for _, k := range TransparentKinds {
		seen[k]++
		if !transparent[k] {
			t.Errorf("%v should be non-transparent", k)
		}
	}
	for _, k := range NonTransparentKinds {
		seen[k]++
		if transparent[k] {
			t.Errorf("%v should be transparent", k)
		}
	}
	for k := ErrorKind(0); int(k) < NumErrorKinds; k++ {
		if seen[k] != 1 {
			t.Errorf("%v is on %d sides of the partition, want 1", k, seen[k])
		}
	}
}

func TestDayRecordActive(t *testing.T) {
	var r DayRecord
	if r.Active() {
		t.Error("zero record should be inactive")
	}
	r.Reads = 1
	if !r.Active() {
		t.Error("record with reads should be active")
	}
	r = DayRecord{Writes: 5}
	if !r.Active() {
		t.Error("record with writes should be active")
	}
	r = DayRecord{Erases: 5}
	if r.Active() {
		t.Error("erase-only record should not count as active (paper: read/write provisioning)")
	}
}

func TestNonTransparentErrorCounts(t *testing.T) {
	var r DayRecord
	r.Errors[ErrUncorrectable] = 3 // daily counts, excluded
	r.CumErrors[ErrUncorrectable] = 30
	r.CumErrors[ErrTimeout] = 1
	r.CumErrors[ErrRead] = 99 // transparent, excluded
	if got := r.CumNonTransparentErrors(); got != 31 {
		t.Errorf("CumNonTransparentErrors = %d, want 31", got)
	}
}

func TestBadBlocks(t *testing.T) {
	r := DayRecord{FactoryBadBlocks: 4, GrownBadBlocks: 7}
	if got := r.BadBlocks(); got != 11 {
		t.Errorf("BadBlocks = %d, want 11", got)
	}
}

// makeDrive builds a valid drive with records on the given fleet days.
func makeDrive(id uint32, model Model, days ...int32) Drive {
	d := Drive{ID: id, Model: model}
	for i, day := range days {
		var rec DayRecord
		rec.Day = day
		rec.Age = day - days[0]
		rec.Reads = uint64(10 * (i + 1))
		rec.Writes = uint64(20 * (i + 1))
		rec.CumReads = uint64(100 * (i + 1))
		rec.CumWrites = uint64(200 * (i + 1))
		rec.PECycles = float64(i)
		rec.Errors[ErrCorrectable] = uint32(i)
		rec.CumErrors[ErrCorrectable] = uint64(i * (i + 1) / 2)
		d.Days = append(d.Days, rec)
	}
	return d
}

func TestDriveAccessors(t *testing.T) {
	d := makeDrive(7, MLCB, 5, 6, 9, 12)
	if got := d.MaxAge(); got != 7 {
		t.Errorf("MaxAge = %d, want 7", got)
	}
	if got := d.DataCount(); got != 4 {
		t.Errorf("DataCount = %d, want 4", got)
	}
	if d.Failed() {
		t.Error("drive without swaps should not be failed")
	}
	d.Swaps = append(d.Swaps, SwapEvent{Day: 14})
	if !d.Failed() {
		t.Error("drive with swaps should be failed")
	}
	if d.Last().Day != 12 {
		t.Errorf("Last().Day = %d, want 12", d.Last().Day)
	}
	var empty Drive
	if empty.Last() != nil {
		t.Error("Last of empty drive should be nil")
	}
	if empty.MaxAge() != 0 {
		t.Error("MaxAge of empty drive should be 0")
	}
}

func TestRecordOn(t *testing.T) {
	d := makeDrive(1, MLCA, 5, 6, 9, 12)
	cases := []struct {
		day  int32
		want int
	}{{5, 0}, {6, 1}, {9, 2}, {12, 3}, {4, -1}, {7, -1}, {13, -1}}
	for _, c := range cases {
		if got := d.RecordOn(c.day); got != c.want {
			t.Errorf("RecordOn(%d) = %d, want %d", c.day, got, c.want)
		}
	}
}

func TestLastRecordBefore(t *testing.T) {
	d := makeDrive(1, MLCA, 5, 6, 9, 12)
	cases := []struct {
		day  int32
		want int
	}{{5, -1}, {6, 0}, {9, 1}, {10, 2}, {100, 3}, {0, -1}}
	for _, c := range cases {
		if got := d.LastRecordBefore(c.day); got != c.want {
			t.Errorf("LastRecordBefore(%d) = %d, want %d", c.day, got, c.want)
		}
	}
}

func TestFleetAggregates(t *testing.T) {
	f := &Fleet{Horizon: 100}
	f.Drives = append(f.Drives, makeDrive(1, MLCA, 1, 2, 3))
	f.Drives = append(f.Drives, makeDrive(2, MLCB, 4, 5))
	f.Drives = append(f.Drives, makeDrive(3, MLCB, 6))
	f.Drives[1].Swaps = []SwapEvent{{Day: 9}, {Day: 50}}
	if got := f.DriveDays(); got != 6 {
		t.Errorf("DriveDays = %d, want 6", got)
	}
	counts := f.CountByModel()
	if counts[MLCA] != 1 || counts[MLCB] != 2 || counts[MLCD] != 0 {
		t.Errorf("CountByModel = %v", counts)
	}
	if got := f.SwapCount(); got != 2 {
		t.Errorf("SwapCount = %d, want 2", got)
	}
	sub := f.FilterModel(MLCB)
	if len(sub.Drives) != 2 || sub.Horizon != 100 {
		t.Errorf("FilterModel: %d drives, horizon %d", len(sub.Drives), sub.Horizon)
	}
	for i := range sub.Drives {
		if sub.Drives[i].Model != MLCB {
			t.Errorf("FilterModel returned model %v", sub.Drives[i].Model)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	f := &Fleet{Horizon: 20}
	f.Drives = append(f.Drives, makeDrive(1, MLCA, 1, 2, 3))
	f.Drives[0].Swaps = []SwapEvent{{Day: 5}, {Day: 10}}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func(mutate func(f *Fleet)) *Fleet {
		f := &Fleet{Horizon: 20}
		f.Drives = append(f.Drives, makeDrive(1, MLCA, 1, 2, 3))
		mutate(f)
		return f
	}
	cases := map[string]*Fleet{
		"duplicate id": func() *Fleet {
			f := mk(func(*Fleet) {})
			f.Drives = append(f.Drives, makeDrive(1, MLCB, 4))
			return f
		}(),
		"bad model":         mk(func(f *Fleet) { f.Drives[0].Model = Model(99) }),
		"day over horizon":  mk(func(f *Fleet) { f.Drives[0].Days[2].Day = 25; f.Drives[0].Days[2].Age = 24 }),
		"negative age":      mk(func(f *Fleet) { f.Drives[0].Days[0].Age = -1 }),
		"unsorted days":     mk(func(f *Fleet) { f.Drives[0].Days[1].Day = 1 }),
		"age mismatch":      mk(func(f *Fleet) { f.Drives[0].Days[1].Age = 5 }),
		"pe decrease":       mk(func(f *Fleet) { f.Drives[0].Days[2].PECycles = 0.5 }),
		"pe NaN":            mk(func(f *Fleet) { f.Drives[0].Days[1].PECycles = math.NaN() }),
		"pe +Inf":           mk(func(f *Fleet) { f.Drives[0].Days[2].PECycles = math.Inf(1) }),
		"pe -Inf":           mk(func(f *Fleet) { f.Drives[0].Days[0].PECycles = math.Inf(-1) }),
		"pe negative":       mk(func(f *Fleet) { f.Drives[0].Days[0].PECycles = -1 }),
		"grown bb decrease": mk(func(f *Fleet) { f.Drives[0].Days[0].GrownBadBlocks = 9 }),
		"factory change":    mk(func(f *Fleet) { f.Drives[0].Days[1].FactoryBadBlocks = 9 }),
		"cum op decrease":   mk(func(f *Fleet) { f.Drives[0].Days[2].CumReads = 0 }),
		"cum err decrease":  mk(func(f *Fleet) { f.Drives[0].Days[2].CumErrors[ErrCorrectable] = 0 }),
		"daily over cum":    mk(func(f *Fleet) { f.Drives[0].Days[1].Errors[ErrMeta] = 7 }),
		"swap over horizon": mk(func(f *Fleet) { f.Drives[0].Swaps = []SwapEvent{{Day: 21}} }),
		"unsorted swaps":    mk(func(f *Fleet) { f.Drives[0].Swaps = []SwapEvent{{Day: 9}, {Day: 9}} }),
	}
	for name, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid fleet", name)
		}
	}
}

// TestValidateIngestReplyText pins the text an ingest reply carries for
// each per-record rule: the daemon's 422 bodies quote it verbatim.
func TestValidateIngestReplyText(t *testing.T) {
	for _, c := range []struct {
		mutate func(r *DayRecord)
		want   string
	}{
		{func(r *DayRecord) { r.Day = -1 }, "serve: negative day -1"},
		{func(r *DayRecord) { r.Age = -2 }, "serve: negative age -2"},
		{func(r *DayRecord) { r.PECycles = math.NaN() }, "serve: invalid pe_cycles NaN"},
		{func(r *DayRecord) { r.PECycles = -1 }, "serve: invalid pe_cycles -1"},
		{func(r *DayRecord) { r.Errors[ErrCorrectable] = 3 }, "serve: daily correctable count 3 exceeds cumulative 0"},
	} {
		r := DayRecord{Day: 5, Age: 5}
		if err := ValidateIngest(&r); err != nil {
			t.Fatalf("valid record rejected: %v", err)
		}
		c.mutate(&r)
		if err := ValidateIngest(&r); err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %q", err, c.want)
		}
	}
}

// randomFleet builds a structurally valid pseudorandom fleet for codec tests.
func randomFleet(rng *rand.Rand, drives int) *Fleet {
	f := &Fleet{Horizon: 400}
	for id := 0; id < drives; id++ {
		d := Drive{ID: uint32(id + 1), Model: Model(rng.Intn(NumModels))}
		day := int32(rng.Intn(30))
		first := day
		var cum DayRecord
		n := 1 + rng.Intn(40)
		for j := 0; j < n && day < 399; j++ {
			var r DayRecord
			r.Day = day
			r.Age = day - first
			r.Reads = uint64(rng.Intn(1000))
			r.Writes = uint64(rng.Intn(1000))
			r.Erases = uint64(rng.Intn(100))
			cum.CumReads += r.Reads
			cum.CumWrites += r.Writes
			cum.CumErases += r.Erases
			r.CumReads, r.CumWrites, r.CumErases = cum.CumReads, cum.CumWrites, cum.CumErases
			cum.PECycles += rng.Float64()
			r.PECycles = cum.PECycles
			r.FactoryBadBlocks = 3
			cum.GrownBadBlocks += uint32(rng.Intn(2))
			r.GrownBadBlocks = cum.GrownBadBlocks
			for k := 0; k < NumErrorKinds; k++ {
				e := uint32(rng.Intn(5))
				r.Errors[k] = e
				cum.CumErrors[k] += uint64(e)
				r.CumErrors[k] = cum.CumErrors[k]
			}
			r.Dead = rng.Intn(50) == 0
			r.ReadOnly = rng.Intn(50) == 0
			d.Days = append(d.Days, r)
			day += int32(1 + rng.Intn(3))
		}
		if rng.Intn(4) == 0 {
			d.Swaps = append(d.Swaps, SwapEvent{Day: day})
		}
		f.Drives = append(f.Drives, d)
	}
	return f
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := randomFleet(rng, 25)
	if err := f.Validate(); err != nil {
		t.Fatalf("generated fleet invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, f); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatal("binary round trip is not identity")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a fleet at all")); err == nil {
		t.Error("ReadBinary should reject non-fleet data")
	}
	if _, err := ReadBinary(strings.NewReader("SS")); err == nil {
		t.Error("ReadBinary should reject truncated magic")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randomFleet(rng, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("ReadBinary accepted truncation at %d bytes", cut)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := randomFleet(rng, 15)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatal("CSV round trip is not identity")
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	bad := []string{
		"X,1,MLC-A,5\n",
		"D,notanumber,MLC-A,5\n",
		"D,1,MLC-Z,5\n",
		"D,1,MLC-A,5\n", // too few fields for a D row
		"S,1,MLC-A,xyz\n",
	}
	for _, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadCSV accepted malformed input %q", s)
		}
	}
}

func TestCSVSkipsCommentsAndBlank(t *testing.T) {
	in := "#comment\n\n#horizon,77\nS,3,MLC-D,12\n"
	f, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.Horizon != 77 {
		t.Errorf("horizon = %d, want 77", f.Horizon)
	}
	if len(f.Drives) != 1 || len(f.Drives[0].Swaps) != 1 {
		t.Fatalf("unexpected parse result: %+v", f)
	}
}

func TestSplitComma(t *testing.T) {
	cases := map[string][]string{
		"a,b,c": {"a", "b", "c"},
		"":      {""},
		",":     {"", ""},
		"x":     {"x"},
		"a,,b":  {"a", "", "b"},
	}
	for in, want := range cases {
		if got := splitComma(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitComma(%q) = %v, want %v", in, got, want)
		}
	}
}

// Property: both codecs are identity on arbitrary valid fleets.
func TestCodecsRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFleet(rng, 1+rng.Intn(10))
		var bbuf, cbuf bytes.Buffer
		if err := WriteBinary(&bbuf, f); err != nil {
			return false
		}
		fb, err := ReadBinary(&bbuf)
		if err != nil {
			return false
		}
		if err := WriteCSV(&cbuf, f); err != nil {
			return false
		}
		fc, err := ReadCSV(&cbuf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(f, fb) && reflect.DeepEqual(f, fc)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: RecordOn agrees with a linear scan.
func TestRecordOnMatchesLinearScan(t *testing.T) {
	prop := func(seed int64, probe int32) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFleet(rng, 1)
		d := &f.Drives[0]
		day := probe % 450
		if day < 0 {
			day = -day
		}
		want := -1
		for i := range d.Days {
			if d.Days[i].Day == day {
				want = i
				break
			}
		}
		return d.RecordOn(day) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Package dataset turns a fleet trace plus its failure reconstruction
// into supervised learning matrices, following the paper's Section 5.1
// methodology: for every workload and error statistic the feature vector
// carries both the day-of-prediction value and the lifetime cumulative
// value; the label marks whether a swap-inducing failure occurs within
// the next N days; folds partition by drive ID so no drive's days are
// split across train and test; and the majority class can be
// downsampled to a 1:1 ratio for training.
package dataset

import (
	"math"
	"slices"

	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/trace"
)

// Feature indices. The first block mirrors the daily statistics, the
// second their cumulative counterparts, then drive state and age.
const (
	FReadCount = iota
	FWriteCount
	FEraseCount
	FCumReadCount
	FCumWriteCount
	FCumEraseCount
	FPECycles
	FBadBlockDelta // grown bad blocks added since the previous report
	FCumBadBlockCount
	FStatusDead
	FStatusReadOnly
	FErrBase                                      // 10 daily error counts start here
	FCumErrBase  = FErrBase + trace.NumErrorKinds // 10 cumulative error counts
	FDriveAge    = FCumErrBase + trace.NumErrorKinds
	FCorrErrRate = FDriveAge + 1 // correctable errors per operation
	NumFeatures  = FCorrErrRate + 1
)

// FeatureNames returns the display names of all features, in index order,
// using the paper's Figure 16 naming style.
func FeatureNames() []string {
	names := make([]string, NumFeatures)
	names[FReadCount] = "read count"
	names[FWriteCount] = "write count"
	names[FEraseCount] = "erase count"
	names[FCumReadCount] = "cum read count"
	names[FCumWriteCount] = "cum write count"
	names[FCumEraseCount] = "cum erase count"
	names[FPECycles] = "pe cycle count"
	names[FBadBlockDelta] = "bad block delta"
	names[FCumBadBlockCount] = "cum bad block count"
	names[FStatusDead] = "status dead"
	names[FStatusReadOnly] = "status read only"
	for k := 0; k < trace.NumErrorKinds; k++ {
		kind := trace.ErrorKind(k).String()
		names[FErrBase+k] = kind + " error"
		names[FCumErrBase+k] = "cum " + kind + " error"
	}
	names[FDriveAge] = "drive age"
	names[FCorrErrRate] = "corr err rate"
	return names
}

// Matrix is a dense feature matrix with labels and row provenance.
// Rows are stored flat in row-major order. Width is the row stride; the
// zero value means the standard NumFeatures layout, which is all Extract
// produces. Matrices built by hand may set another width.
type Matrix struct {
	X        []float64
	Y        []int8  // 1 = failure within lookahead, 0 = not
	DriveIdx []int32 // index into the source fleet's Drives
	Day      []int32 // fleet day of the row
	Age      []int32 // drive age of the row
	Width    int     // row stride; 0 means NumFeatures
}

// W returns the row stride.
func (m *Matrix) W() int {
	if m.Width == 0 {
		return NumFeatures
	}
	return m.Width
}

// Len returns the number of rows.
func (m *Matrix) Len() int { return len(m.Y) }

// Row returns the i-th feature vector (a view, not a copy).
func (m *Matrix) Row(i int) []float64 {
	w := m.W()
	return m.X[i*w : (i+1)*w]
}

// Reset empties the matrix for reuse, keeping the row stride and the
// allocated capacity of its slices.
func (m *Matrix) Reset() {
	m.X = m.X[:0]
	m.Y = m.Y[:0]
	m.DriveIdx = m.DriveIdx[:0]
	m.Day = m.Day[:0]
	m.Age = m.Age[:0]
}

// Positives returns the number of positive rows.
func (m *Matrix) Positives() int {
	n := 0
	for _, y := range m.Y {
		if y == 1 {
			n++
		}
	}
	return n
}

// appendRow extracts the feature vector for one record. It writes every
// feature, so the row may land on reused capacity (after Reset) without
// being zeroed first; Extract sizes the columns exactly, so there the
// appends never grow.
func (m *Matrix) appendRow(di int32, r, prev *trace.DayRecord, label int8) {
	base := len(m.X)
	m.X = slices.Grow(m.X, NumFeatures)[:base+NumFeatures]
	x := m.X[base:]

	x[FReadCount] = float64(r.Reads)
	x[FWriteCount] = float64(r.Writes)
	x[FEraseCount] = float64(r.Erases)
	x[FCumReadCount] = float64(r.CumReads)
	x[FCumWriteCount] = float64(r.CumWrites)
	x[FCumEraseCount] = float64(r.CumErases)
	x[FPECycles] = r.PECycles
	if prev != nil && r.GrownBadBlocks >= prev.GrownBadBlocks {
		x[FBadBlockDelta] = float64(r.GrownBadBlocks - prev.GrownBadBlocks)
	} else {
		x[FBadBlockDelta] = float64(r.GrownBadBlocks)
	}
	x[FCumBadBlockCount] = float64(r.BadBlocks())
	x[FStatusDead] = flag(r.Dead)
	x[FStatusReadOnly] = flag(r.ReadOnly)
	for k := 0; k < trace.NumErrorKinds; k++ {
		x[FErrBase+k] = float64(r.Errors[k])
		x[FCumErrBase+k] = float64(r.CumErrors[k])
	}
	x[FDriveAge] = float64(r.Age)
	x[FCorrErrRate] = float64(r.Errors[trace.ErrCorrectable]) / (float64(r.Reads+r.Writes) + 1)

	m.Y = append(m.Y, label)
	m.DriveIdx = append(m.DriveIdx, di)
	m.Day = append(m.Day, r.Day)
	m.Age = append(m.Age, r.Age)
}

// flag encodes a status bit as a feature value.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// AppendFeatureRow appends the feature vector of a single record with a
// zero label and no provenance, for scoring live drives outside the
// extraction pipeline. prev may be nil.
func (m *Matrix) AppendFeatureRow(r, prev *trace.DayRecord) {
	m.appendRow(-1, r, prev, 0)
}

// Options controls extraction.
type Options struct {
	// Lookahead N: a row is positive when a reconstructed failure occurs
	// within [day, day+N-1]. Must be >= 1.
	Lookahead int
	// NegativeSampleProb keeps each negative row with this probability
	// (<= 0 or >= 1 keeps all). Positives are always kept. Sampling is
	// deterministic given Seed.
	NegativeSampleProb float64
	Seed               uint64
	// IncludeDrive filters drives (fold selection); nil includes all.
	// Extract calls it twice per drive (one counting pass, one filling
	// pass), so it must be a pure function of the drive index.
	IncludeDrive func(driveIdx int) bool
	// AgeMin/AgeMax restrict rows to an age band (inclusive); use a
	// negative AgeMax for no upper bound. This implements the paper's
	// §5.3 age-partitioned training.
	AgeMin, AgeMax int32
}

// Extract builds the matrix for a fleet given its failure analysis.
// Rows are emitted only for operational days: reports that fall strictly
// inside a reconstructed non-operational window (after a failure, before
// the corresponding repair re-entry) are skipped, since those days are
// after the event being predicted.
//
// The fleet is walked twice: once to count the kept rows, then again to
// fill columns allocated at exactly that size, so no column ever grows.
func Extract(f *trace.Fleet, an *failure.Analysis, o Options) *Matrix {
	if o.Lookahead < 1 {
		o.Lookahead = 1
	}
	n := 0
	walkRows(f, an, &o, func(int, *trace.DayRecord, *trace.DayRecord, int8) { n++ })

	m := &Matrix{
		X:        make([]float64, 0, n*NumFeatures),
		Y:        make([]int8, 0, n),
		DriveIdx: make([]int32, 0, n),
		Day:      make([]int32, 0, n),
		Age:      make([]int32, 0, n),
	}
	walkRows(f, an, &o, func(di int, r, prev *trace.DayRecord, label int8) {
		m.appendRow(int32(di), r, prev, label)
	})
	return m
}

// walkRows calls emit for every row Extract keeps, in output order, with
// the drive index, the record, the drive's previous report (nil for its
// first) and the row's label. Negative sampling draws from an RNG seeded
// afresh from o.Seed on every walk, so two walks under the same options
// visit the same rows.
func walkRows(f *trace.Fleet, an *failure.Analysis, o *Options, emit func(di int, r, prev *trace.DayRecord, label int8)) {
	rng := fleetsim.NewRNG(o.Seed ^ 0x5ca1ab1e)
	keepNeg := o.NegativeSampleProb > 0 && o.NegativeSampleProb < 1

	for di := range f.Drives {
		if o.IncludeDrive != nil && !o.IncludeDrive(di) {
			continue
		}
		d := &f.Drives[di]
		events := an.PerDrive[di]
		var prev *trace.DayRecord
		ei := 0 // next event whose FailDay >= current day
		for j := range d.Days {
			r := &d.Days[j]
			for ei < len(events) && an.Events[events[ei]].FailDay < r.Day {
				ei++
			}
			// Skip days inside a non-operational window.
			if inNonOpWindow(an, events, r.Day) {
				prev = r
				continue
			}
			if r.Age < o.AgeMin || (o.AgeMax >= 0 && r.Age > o.AgeMax) {
				prev = r
				continue
			}
			var label int8
			if ei < len(events) {
				fd := an.Events[events[ei]].FailDay
				if fd-r.Day < int32(o.Lookahead) {
					label = 1
				}
			}
			if label == 0 && keepNeg && !rng.Bernoulli(o.NegativeSampleProb) {
				prev = r
				continue
			}
			emit(di, r, prev, label)
			prev = r
		}
	}
}

// inNonOpWindow reports whether day falls strictly inside any event's
// (FailDay, ReturnDay-or-infinity) window for the drive.
func inNonOpWindow(an *failure.Analysis, events []int, day int32) bool {
	for _, ei := range events {
		e := &an.Events[ei]
		if day <= e.FailDay {
			continue
		}
		if e.ReturnDay < 0 || day < e.ReturnDay {
			return true
		}
	}
	return false
}

// Downsample returns a matrix with all positive rows and negatives
// sampled uniformly to approximately ratio negatives per positive (the
// paper uses 1:1). Deterministic given seed.
func Downsample(m *Matrix, ratio float64, seed uint64) *Matrix {
	pos := m.Positives()
	neg := m.Len() - pos
	if pos == 0 || neg == 0 {
		return m
	}
	want := float64(pos) * ratio
	p := want / float64(neg)
	if p >= 1 {
		return m
	}
	rng := fleetsim.NewRNG(seed ^ 0xd0d0)
	out := &Matrix{}
	for i := 0; i < m.Len(); i++ {
		if m.Y[i] == 1 || rng.Bernoulli(p) {
			out.copyRow(m, i)
		}
	}
	return out
}

// copyRow appends row i of src to m, propagating the row width.
func (m *Matrix) copyRow(src *Matrix, i int) {
	m.Width = src.Width
	m.X = append(m.X, src.Row(i)...)
	m.Y = append(m.Y, src.Y[i])
	m.DriveIdx = append(m.DriveIdx, src.DriveIdx[i])
	m.Day = append(m.Day, src.Day[i])
	m.Age = append(m.Age, src.Age[i])
}

// Subset returns a new matrix holding the given rows of m, each column
// allocated once at its final size.
func (m *Matrix) Subset(rows []int) *Matrix {
	n := len(rows)
	out := &Matrix{
		X:        make([]float64, 0, n*m.W()),
		Y:        make([]int8, 0, n),
		DriveIdx: make([]int32, 0, n),
		Day:      make([]int32, 0, n),
		Age:      make([]int32, 0, n),
		Width:    m.Width,
	}
	for _, i := range rows {
		out.copyRow(m, i)
	}
	return out
}

// Folds assigns each of nDrives drives to one of k folds, shuffling
// deterministically by seed. The paper partitions folds by drive ID so
// that the highly correlated days of a single drive never span the
// train/test split.
func Folds(nDrives, k int, seed uint64) []int {
	rng := fleetsim.NewRNG(seed ^ 0xf01d5)
	perm := make([]int, nDrives)
	for i := range perm {
		perm[i] = i
	}
	for i := nDrives - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	fold := make([]int, nDrives)
	for pos, di := range perm {
		fold[di] = pos % k
	}
	return fold
}

// Scaler standardizes features to zero mean and unit variance, with the
// statistics estimated on the training set only.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler estimates per-feature means and standard deviations.
func FitScaler(m *Matrix) *Scaler {
	w := m.W()
	s := &Scaler{Mean: make([]float64, w), Std: make([]float64, w)}
	n := float64(m.Len())
	if n == 0 {
		for f := range s.Std {
			s.Std[f] = 1
		}
		return s
	}
	for i := 0; i < m.Len(); i++ {
		row := m.Row(i)
		for f, v := range row {
			s.Mean[f] += v
		}
	}
	for f := range s.Mean {
		s.Mean[f] /= n
	}
	for i := 0; i < m.Len(); i++ {
		row := m.Row(i)
		for f, v := range row {
			d := v - s.Mean[f]
			s.Std[f] += d * d
		}
	}
	for f := range s.Std {
		s.Std[f] = math.Sqrt(s.Std[f] / n)
		if s.Std[f] < 1e-12 {
			s.Std[f] = 1
		}
	}
	return s
}

// Transform standardizes a single feature vector in place.
func (s *Scaler) Transform(row []float64) {
	for f := range row {
		row[f] = (row[f] - s.Mean[f]) / s.Std[f]
	}
}

// Apply returns a standardized copy of the matrix.
func (s *Scaler) Apply(m *Matrix) *Matrix {
	out := &Matrix{
		X:        make([]float64, len(m.X)),
		Y:        m.Y,
		DriveIdx: m.DriveIdx,
		Day:      m.Day,
		Age:      m.Age,
		Width:    m.Width,
	}
	copy(out.X, m.X)
	for i := 0; i < out.Len(); i++ {
		s.Transform(out.Row(i))
	}
	return out
}

// Package trace defines the SSD field-log schema used throughout this
// repository: per-drive daily performance records, swap events, and the
// fleet-level container that holds them.
//
// The schema mirrors the proprietary Google log described in Section 2 of
// "SSD Failures in the Field" (SC '19): for each day of operation a drive
// reports its read/write/erase activity, cumulative program–erase (P/E)
// cycles, dead and read-only status flags, factory and grown bad-block
// counts, and per-day counts of ten error types. Swap events mark the
// moment a failed drive is physically extracted for repair.
package trace

import "fmt"

// Model identifies one of the three MLC drive models in the study.
type Model uint8

// The three drive models, named as in the paper (which follows the naming
// of Schroeder et al., FAST '16).
const (
	MLCA Model = iota
	MLCB
	MLCD
	numModels
)

// NumModels is the number of distinct drive models.
const NumModels = int(numModels)

// Models lists all drive models in canonical order.
var Models = [NumModels]Model{MLCA, MLCB, MLCD}

// String returns the paper's name for the model.
func (m Model) String() string {
	switch m {
	case MLCA:
		return "MLC-A"
	case MLCB:
		return "MLC-B"
	case MLCD:
		return "MLC-D"
	}
	return fmt.Sprintf("MLC-?(%d)", uint8(m))
}

// ParseModel converts a model name ("MLC-A", "MLC-B", "MLC-D") to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "MLC-A", "mlc-a", "A", "a":
		return MLCA, nil
	case "MLC-B", "mlc-b", "B", "b":
		return MLCB, nil
	case "MLC-D", "mlc-d", "D", "d":
		return MLCD, nil
	}
	return 0, fmt.Errorf("trace: unknown drive model %q", s)
}

// ErrorKind enumerates the ten error counters reported in the daily log.
type ErrorKind uint8

// Error kinds, in the order used for the per-record counter arrays.
const (
	ErrCorrectable   ErrorKind = iota // bits corrected by drive-internal ECC
	ErrErase                          // failed erase operations
	ErrFinalRead                      // reads that failed even after retries
	ErrFinalWrite                     // writes that failed even after retries
	ErrMeta                           // errors reading drive-internal metadata
	ErrRead                           // reads that erred but succeeded on retry
	ErrResponse                       // bad responses from the drive
	ErrTimeout                        // operations that timed out
	ErrUncorrectable                  // uncorrectable ECC errors during reads
	ErrWrite                          // writes that erred but succeeded on retry
	numErrorKinds
)

// NumErrorKinds is the number of distinct error counters per record.
const NumErrorKinds = int(numErrorKinds)

// ErrorKinds lists all error kinds in canonical order.
var ErrorKinds = [NumErrorKinds]ErrorKind{
	ErrCorrectable, ErrErase, ErrFinalRead, ErrFinalWrite, ErrMeta,
	ErrRead, ErrResponse, ErrTimeout, ErrUncorrectable, ErrWrite,
}

var errorKindNames = [NumErrorKinds]string{
	"correctable", "erase", "final_read", "final_write", "meta",
	"read", "response", "timeout", "uncorrectable", "write",
}

// String returns the snake_case name of the error kind.
func (k ErrorKind) String() string {
	if int(k) < NumErrorKinds {
		return errorKindNames[k]
	}
	return fmt.Sprintf("error_kind_%d", uint8(k))
}

// ParseErrorKind converts a snake_case error name back to an ErrorKind.
func ParseErrorKind(s string) (ErrorKind, error) {
	for i, n := range errorKindNames {
		if n == s {
			return ErrorKind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown error kind %q", s)
}

// TransparentKinds and NonTransparentKinds partition ErrorKinds per §2.
var (
	TransparentKinds    = []ErrorKind{ErrCorrectable, ErrErase, ErrRead, ErrWrite}
	NonTransparentKinds = []ErrorKind{ErrFinalRead, ErrFinalWrite, ErrMeta, ErrResponse, ErrTimeout, ErrUncorrectable}
)

// DayRecord is one daily performance summary for one drive. Days are
// numbered from a fleet-wide epoch (day 0). Age is days since the drive's
// first operational day; the paper's logs report a microsecond timestamp
// since the beginning of drive life, which this field summarizes at the
// daily granularity of the analysis.
type DayRecord struct {
	Day int32 // fleet day of this report
	Age int32 // drive age in days at this report

	Reads  uint64 // read operations performed this day
	Writes uint64 // write operations performed this day
	Erases uint64 // erase operations performed this day

	CumReads  uint64 // lifetime read operations through this day
	CumWrites uint64 // lifetime write operations through this day
	CumErases uint64 // lifetime erase operations through this day

	PECycles float64 // cumulative program–erase cycles (device wear)

	FactoryBadBlocks uint32 // bad blocks present at purchase (constant)
	GrownBadBlocks   uint32 // cumulative blocks retired after errors

	Errors    [NumErrorKinds]uint32 // error counts for this day
	CumErrors [NumErrorKinds]uint64 // lifetime error counts through this day

	Dead     bool // drive reports itself dead
	ReadOnly bool // drive is operating in read-only mode
}

// Active reports whether the drive performed any read or write operations
// on this day. The paper treats a run of inactive days before a swap as a
// "soft" removal from production.
func (r *DayRecord) Active() bool { return r.Reads > 0 || r.Writes > 0 }

// BadBlocks returns the total bad-block count (factory + grown).
func (r *DayRecord) BadBlocks() uint32 { return r.FactoryBadBlocks + r.GrownBadBlocks }

// CumNonTransparentErrors returns the lifetime count of non-transparent
// errors through this day.
func (r *DayRecord) CumNonTransparentErrors() uint64 {
	var n uint64
	for _, k := range NonTransparentKinds {
		n += r.CumErrors[k]
	}
	return n
}

// SwapEvent marks the extraction of a failed drive from production on a
// given fleet day. Every swap corresponds to a single catastrophic failure
// (§3); the failure itself precedes the swap by the non-operational period.
type SwapEvent struct {
	Day int32 // fleet day the drive was physically swapped out
}

// Drive is the full observational record for one drive: its identity, its
// daily reports (sorted by day, possibly with gaps where the drive did not
// report), and its swap events (sorted by day).
type Drive struct {
	ID    uint32
	Model Model
	Days  []DayRecord
	Swaps []SwapEvent
}

// MaxAge returns the oldest observed age of the drive in days, or 0 if the
// drive has no records ("Max Age" in Figure 1).
func (d *Drive) MaxAge() int32 {
	if len(d.Days) == 0 {
		return 0
	}
	return d.Days[len(d.Days)-1].Age
}

// DataCount returns the number of daily reports present in the log for
// this drive ("Data Count" in Figure 1).
func (d *Drive) DataCount() int { return len(d.Days) }

// Failed reports whether the drive was swapped at least once.
func (d *Drive) Failed() bool { return len(d.Swaps) > 0 }

// Last returns the drive's final report, or nil if there is none.
func (d *Drive) Last() *DayRecord {
	if len(d.Days) == 0 {
		return nil
	}
	return &d.Days[len(d.Days)-1]
}

// RecordOn returns the index of the record for the given fleet day using
// binary search, or -1 if the drive did not report that day.
func (d *Drive) RecordOn(day int32) int {
	lo, hi := 0, len(d.Days)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Days[mid].Day < day {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.Days) && d.Days[lo].Day == day {
		return lo
	}
	return -1
}

// LastRecordBefore returns the index of the last record with Day < day,
// or -1 if there is none.
func (d *Drive) LastRecordBefore(day int32) int {
	lo, hi := 0, len(d.Days)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Days[mid].Day < day {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Fleet is a collection of drives — the full trace for one simulated or
// recorded data center deployment.
type Fleet struct {
	Drives []Drive
	// Horizon is the number of fleet days covered by the trace; reports
	// and swaps all fall in [0, Horizon).
	Horizon int32
}

// DriveDays returns the total number of daily reports across all drives.
func (f *Fleet) DriveDays() int {
	var n int
	for i := range f.Drives {
		n += len(f.Drives[i].Days)
	}
	return n
}

// CountByModel returns the number of drives of each model.
func (f *Fleet) CountByModel() [NumModels]int {
	var c [NumModels]int
	for i := range f.Drives {
		c[f.Drives[i].Model]++
	}
	return c
}

// SwapCount returns the total number of swap events in the fleet.
func (f *Fleet) SwapCount() int {
	var n int
	for i := range f.Drives {
		n += len(f.Drives[i].Swaps)
	}
	return n
}

// FilterModel returns a shallow fleet containing only drives of model m.
// Drive slices are shared with the original fleet, not copied.
func (f *Fleet) FilterModel(m Model) *Fleet {
	out := &Fleet{Horizon: f.Horizon}
	for i := range f.Drives {
		if f.Drives[i].Model == m {
			out.Drives = append(out.Drives, f.Drives[i])
		}
	}
	return out
}

// Validate checks structural invariants of the fleet: each record valid
// on its own (DayRecord.Validate), records sorted and unique per drive,
// monotone cumulative counters, ages consistent with
// days, and events within the horizon. It returns the first violation
// found, or nil if the fleet is well formed.
func (f *Fleet) Validate() error {
	seen := make(map[uint32]bool, len(f.Drives))
	for i := range f.Drives {
		d := &f.Drives[i]
		if seen[d.ID] {
			return fmt.Errorf("trace: duplicate drive ID %d", d.ID)
		}
		seen[d.ID] = true
		if err := d.Validate(f.Horizon); err != nil {
			return fmt.Errorf("drive %d: %w", d.ID, err)
		}
	}
	return nil
}

// Validate checks the per-drive invariants described under Fleet.Validate.
func (d *Drive) Validate(horizon int32) error {
	if int(d.Model) >= NumModels {
		return fmt.Errorf("invalid model %d", d.Model)
	}
	for j := range d.Days {
		r := &d.Days[j]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("record %d: %w", j, err)
		}
		if horizon > 0 && r.Day >= horizon {
			return fmt.Errorf("record %d: day %d outside horizon %d", j, r.Day, horizon)
		}
		if j > 0 {
			p := &d.Days[j-1]
			if r.Day <= p.Day {
				return fmt.Errorf("record %d: day %d not after previous day %d", j, r.Day, p.Day)
			}
			if r.Age <= p.Age {
				return fmt.Errorf("record %d: age %d not after previous age %d", j, r.Age, p.Age)
			}
			if r.Day-p.Day != r.Age-p.Age {
				return fmt.Errorf("record %d: day delta %d != age delta %d", j, r.Day-p.Day, r.Age-p.Age)
			}
			if r.PECycles < p.PECycles {
				return fmt.Errorf("record %d: P/E cycles decreased %.2f -> %.2f", j, p.PECycles, r.PECycles)
			}
			if r.GrownBadBlocks < p.GrownBadBlocks {
				return fmt.Errorf("record %d: grown bad blocks decreased", j)
			}
			if r.FactoryBadBlocks != p.FactoryBadBlocks {
				return fmt.Errorf("record %d: factory bad blocks changed", j)
			}
			if r.CumReads < p.CumReads || r.CumWrites < p.CumWrites || r.CumErases < p.CumErases {
				return fmt.Errorf("record %d: cumulative op counter decreased", j)
			}
			for k := 0; k < NumErrorKinds; k++ {
				if r.CumErrors[k] < p.CumErrors[k] {
					return fmt.Errorf("record %d: cumulative %s count decreased", j, ErrorKind(k))
				}
			}
		}
	}
	for j, s := range d.Swaps {
		if s.Day < 0 || (horizon > 0 && s.Day >= horizon) {
			return fmt.Errorf("swap %d: day %d outside horizon %d", j, s.Day, horizon)
		}
		if j > 0 && s.Day <= d.Swaps[j-1].Day {
			return fmt.Errorf("swap %d: day %d not after previous swap", j, s.Day)
		}
	}
	return nil
}

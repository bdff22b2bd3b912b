package serve

import (
	"fmt"
	"math"

	"ssdfail/internal/trace"
)

// IngestRecord is the JSON wire form of one drive-day report, mirroring
// the trace.DayRecord schema (§2 of the paper). Error counters are
// keyed by the snake_case kind names used throughout the repo
// ("correctable", "uncorrectable", "final_read", ...); absent kinds
// default to zero.
type IngestRecord struct {
	DriveID uint32 `json:"drive_id"`
	Model   string `json:"model"`
	Day     int32  `json:"day"`
	Age     int32  `json:"age"`

	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Erases uint64 `json:"erases"`

	CumReads  uint64 `json:"cum_reads"`
	CumWrites uint64 `json:"cum_writes"`
	CumErases uint64 `json:"cum_erases"`

	PECycles float64 `json:"pe_cycles"`

	FactoryBadBlocks uint32 `json:"factory_bad_blocks"`
	GrownBadBlocks   uint32 `json:"grown_bad_blocks"`

	Errors    map[string]uint32 `json:"errors,omitempty"`
	CumErrors map[string]uint64 `json:"cum_errors,omitempty"`

	Dead     bool `json:"dead"`
	ReadOnly bool `json:"read_only"`
}

// ToRecord validates the wire record and converts it to the internal
// schema. It enforces the same per-record invariants as trace.Validate:
// non-negative day and age, known model and error-kind names, finite
// non-negative P/E cycles, and daily error counts that do not exceed
// their cumulative counterparts.
func (ir *IngestRecord) ToRecord() (trace.Model, trace.DayRecord, error) {
	model, err := trace.ParseModel(ir.Model)
	if err != nil {
		return 0, trace.DayRecord{}, err
	}
	rec := trace.DayRecord{
		Day: ir.Day, Age: ir.Age,
		Reads: ir.Reads, Writes: ir.Writes, Erases: ir.Erases,
		CumReads: ir.CumReads, CumWrites: ir.CumWrites, CumErases: ir.CumErases,
		PECycles:         ir.PECycles,
		FactoryBadBlocks: ir.FactoryBadBlocks,
		GrownBadBlocks:   ir.GrownBadBlocks,
		Dead:             ir.Dead, ReadOnly: ir.ReadOnly,
	}
	for name, v := range ir.Errors {
		k, err := trace.ParseErrorKind(name)
		if err != nil {
			return 0, trace.DayRecord{}, err
		}
		rec.Errors[k] = v
	}
	for name, v := range ir.CumErrors {
		k, err := trace.ParseErrorKind(name)
		if err != nil {
			return 0, trace.DayRecord{}, err
		}
		rec.CumErrors[k] = v
	}
	if err := validateDayRecord(&rec); err != nil {
		return 0, trace.DayRecord{}, err
	}
	return model, rec, nil
}

// validateDayRecord enforces the per-record invariants shared by the
// JSON and binary ingest paths: non-negative day and age, finite
// non-negative P/E cycles, and daily error counts that do not exceed
// their cumulative counterparts. It never allocates on success.
func validateDayRecord(rec *trace.DayRecord) error {
	if rec.Day < 0 {
		return fmt.Errorf("serve: negative day %d", rec.Day)
	}
	if rec.Age < 0 {
		return fmt.Errorf("serve: negative age %d", rec.Age)
	}
	if math.IsNaN(rec.PECycles) || math.IsInf(rec.PECycles, 0) || rec.PECycles < 0 {
		return fmt.Errorf("serve: invalid pe_cycles %v", rec.PECycles)
	}
	for k := 0; k < trace.NumErrorKinds; k++ {
		if uint64(rec.Errors[k]) > rec.CumErrors[k] {
			return fmt.Errorf(
				"serve: daily %s count %d exceeds cumulative %d",
				trace.ErrorKind(k), rec.Errors[k], rec.CumErrors[k])
		}
	}
	return nil
}

// WireRecord converts an internal record back to the wire form, used by
// the drive-inspection endpoint and by tests and clients building
// ingest payloads from trace data. Zero-valued error counters are
// omitted to keep payloads small.
func WireRecord(id uint32, model trace.Model, rec *trace.DayRecord) IngestRecord {
	ir := IngestRecord{
		DriveID: id, Model: model.String(),
		Day: rec.Day, Age: rec.Age,
		Reads: rec.Reads, Writes: rec.Writes, Erases: rec.Erases,
		CumReads: rec.CumReads, CumWrites: rec.CumWrites, CumErases: rec.CumErases,
		PECycles:         rec.PECycles,
		FactoryBadBlocks: rec.FactoryBadBlocks,
		GrownBadBlocks:   rec.GrownBadBlocks,
		Dead:             rec.Dead, ReadOnly: rec.ReadOnly,
	}
	for k := 0; k < trace.NumErrorKinds; k++ {
		if rec.Errors[k] != 0 {
			if ir.Errors == nil {
				ir.Errors = make(map[string]uint32)
			}
			ir.Errors[trace.ErrorKind(k).String()] = rec.Errors[k]
		}
		if rec.CumErrors[k] != 0 {
			if ir.CumErrors == nil {
				ir.CumErrors = make(map[string]uint64)
			}
			ir.CumErrors[trace.ErrorKind(k).String()] = rec.CumErrors[k]
		}
	}
	return ir
}

package trace

// The JSON wire form of a report: the body of ssdserved's JSON ingest
// endpoints, its drive-inspection reply, and what load generators and
// clients build from trace data.

import (
	"fmt"
	"math"
)

// IngestRecord is the JSON wire form of one drive-day report, mirroring
// the DayRecord schema (§2 of the paper). Error counters are
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
// schema: known model and error-kind names, then DayRecord.Validate.
func (ir *IngestRecord) ToRecord() (Model, DayRecord, error) {
	model, err := ParseModel(ir.Model)
	if err != nil {
		return 0, DayRecord{}, err
	}
	rec := DayRecord{
		Day: ir.Day, Age: ir.Age,
		Reads: ir.Reads, Writes: ir.Writes, Erases: ir.Erases,
		CumReads: ir.CumReads, CumWrites: ir.CumWrites, CumErases: ir.CumErases,
		PECycles:         ir.PECycles,
		FactoryBadBlocks: ir.FactoryBadBlocks,
		GrownBadBlocks:   ir.GrownBadBlocks,
		Dead:             ir.Dead, ReadOnly: ir.ReadOnly,
	}
	for name, v := range ir.Errors {
		k, err := ParseErrorKind(name)
		if err != nil {
			return 0, DayRecord{}, err
		}
		rec.Errors[k] = v
	}
	for name, v := range ir.CumErrors {
		k, err := ParseErrorKind(name)
		if err != nil {
			return 0, DayRecord{}, err
		}
		rec.CumErrors[k] = v
	}
	if err := ValidateIngest(&rec); err != nil {
		return 0, DayRecord{}, err
	}
	return model, rec, nil
}

// Validate enforces the rules one report obeys on its own, whatever
// carries it: non-negative day and age, finite non-negative P/E cycles,
// and daily error counts that do not exceed their cumulative
// counterparts. Drive.Validate adds the rules between consecutive
// reports. It never allocates on success.
func (r *DayRecord) Validate() error {
	if r.Day < 0 {
		return fmt.Errorf("negative day %d", r.Day)
	}
	if r.Age < 0 {
		return fmt.Errorf("negative age %d", r.Age)
	}
	if math.IsNaN(r.PECycles) || math.IsInf(r.PECycles, 0) || r.PECycles < 0 {
		return fmt.Errorf("invalid pe_cycles %v", r.PECycles)
	}
	for k := 0; k < NumErrorKinds; k++ {
		if uint64(r.Errors[k]) > r.CumErrors[k] {
			return fmt.Errorf("daily %s count %d exceeds cumulative %d",
				ErrorKind(k), r.Errors[k], r.CumErrors[k])
		}
	}
	return nil
}

// ValidateIngest is r.Validate as the daemon's ingest wires, JSON and
// binary, report it: the "serve: " prefix is part of their replies.
func ValidateIngest(r *DayRecord) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// WireRecord converts an internal record back to the wire form, used by
// the drive-inspection endpoint and by tests and clients building
// ingest payloads from trace data. Zero-valued error counters are
// omitted to keep payloads small.
func WireRecord(id uint32, model Model, rec *DayRecord) IngestRecord {
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
	for k := 0; k < NumErrorKinds; k++ {
		if rec.Errors[k] != 0 {
			if ir.Errors == nil {
				ir.Errors = make(map[string]uint32)
			}
			ir.Errors[ErrorKind(k).String()] = rec.Errors[k]
		}
		if rec.CumErrors[k] != 0 {
			if ir.CumErrors == nil {
				ir.CumErrors = make(map[string]uint64)
			}
			ir.CumErrors[ErrorKind(k).String()] = rec.CumErrors[k]
		}
	}
	return ir
}

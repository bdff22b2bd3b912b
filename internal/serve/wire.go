package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

// Binary record codec for the WAL and snapshots. One day record is a
// fixed-width little-endian block (day/age, op counters, P/E cycles,
// bad blocks, error arrays, flags); a WAL payload prefixes it with the
// drive ID and model. The fixed width keeps replay allocation-free and
// makes torn frames detectable by length alone.

const (
	dayRecordBinarySize = 4 + 4 + 6*8 + 8 + 4 + 4 + trace.NumErrorKinds*4 + trace.NumErrorKinds*8 + 1
	walRecordBinarySize = 4 + 1 + dayRecordBinarySize
)

// appendDayRecordBinary appends the fixed-width encoding of rec.
func appendDayRecordBinary(buf []byte, rec *trace.DayRecord) []byte {
	n := len(buf)
	buf = slices.Grow(buf, dayRecordBinarySize)[:n+dayRecordBinarySize]
	b := buf[n:]
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(rec.Day))
	le.PutUint32(b[4:], uint32(rec.Age))
	le.PutUint64(b[8:], rec.Reads)
	le.PutUint64(b[16:], rec.Writes)
	le.PutUint64(b[24:], rec.Erases)
	le.PutUint64(b[32:], rec.CumReads)
	le.PutUint64(b[40:], rec.CumWrites)
	le.PutUint64(b[48:], rec.CumErases)
	le.PutUint64(b[56:], math.Float64bits(rec.PECycles))
	le.PutUint32(b[64:], rec.FactoryBadBlocks)
	le.PutUint32(b[68:], rec.GrownBadBlocks)
	off := 72
	for k := 0; k < trace.NumErrorKinds; k++ {
		le.PutUint32(b[off:], rec.Errors[k])
		off += 4
	}
	for k := 0; k < trace.NumErrorKinds; k++ {
		le.PutUint64(b[off:], rec.CumErrors[k])
		off += 8
	}
	var flags byte
	if rec.Dead {
		flags |= 1
	}
	if rec.ReadOnly {
		flags |= 2
	}
	b[off] = flags
	return buf
}

// decodeDayRecordBinary decodes the fixed-width record at the front of
// b, which holds at least dayRecordBinarySize bytes, into rec.
func decodeDayRecordBinary(b []byte, rec *trace.DayRecord) {
	b = b[:dayRecordBinarySize]
	le := binary.LittleEndian
	rec.Day = int32(le.Uint32(b[0:]))
	rec.Age = int32(le.Uint32(b[4:]))
	rec.Reads = le.Uint64(b[8:])
	rec.Writes = le.Uint64(b[16:])
	rec.Erases = le.Uint64(b[24:])
	rec.CumReads = le.Uint64(b[32:])
	rec.CumWrites = le.Uint64(b[40:])
	rec.CumErases = le.Uint64(b[48:])
	rec.PECycles = math.Float64frombits(le.Uint64(b[56:]))
	rec.FactoryBadBlocks = le.Uint32(b[64:])
	rec.GrownBadBlocks = le.Uint32(b[68:])
	off := 72
	for k := 0; k < trace.NumErrorKinds; k++ {
		rec.Errors[k] = le.Uint32(b[off:])
		off += 4
	}
	for k := 0; k < trace.NumErrorKinds; k++ {
		rec.CumErrors[k] = le.Uint64(b[off:])
		off += 8
	}
	flags := b[off]
	rec.Dead = flags&1 != 0
	rec.ReadOnly = flags&2 != 0
}

// appendWALRecordBinary appends the WAL payload for one accepted
// ingest: drive ID, model, day record.
func appendWALRecordBinary(buf []byte, id uint32, model trace.Model, rec *trace.DayRecord) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = append(buf, byte(model))
	return appendDayRecordBinary(buf, rec)
}

// decodeWALRecordBinary decodes a payload written by
// appendWALRecordBinary.
func decodeWALRecordBinary(b []byte) (uint32, trace.Model, trace.DayRecord, error) {
	if len(b) != walRecordBinarySize {
		return 0, 0, trace.DayRecord{}, fmt.Errorf("serve: WAL record is %d bytes, want %d", len(b), walRecordBinarySize)
	}
	id := binary.LittleEndian.Uint32(b)
	model := trace.Model(b[4])
	if int(model) >= trace.NumModels {
		return 0, 0, trace.DayRecord{}, fmt.Errorf("serve: WAL record has unknown model %d", b[4])
	}
	var rec trace.DayRecord
	decodeDayRecordBinary(b[5:], &rec)
	return id, model, rec, nil
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

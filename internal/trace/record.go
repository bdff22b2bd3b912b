package trace

// Fixed-width record codec: the one place that knows a DayRecord's
// bytes. The SSDT fleet file, WAL payloads, store snapshots and the
// SSDB ingest wire all carry a record in this layout, little-endian:
//
//	day i32 | age i32 | reads, writes, erases, cum_reads, cum_writes,
//	cum_erases u64 | pe_cycles f64 | factory_bb u32 | grown_bb u32 |
//	errors 10 × u32 | cum_errors 10 × u64 | flags u8 (1 dead, 2 read-only)
//
// A WAL payload prefixes the record with its drive: id u32 | model u8.
// The fixed width keeps replay allocation-free and makes a torn frame
// detectable by its length alone.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

const (
	// DayRecordSize is the byte length of one encoded DayRecord.
	DayRecordSize = 4 + 4 + 6*8 + 8 + 4 + 4 + NumErrorKinds*4 + NumErrorKinds*8 + 1
	// WALRecordSize is the byte length of one WAL payload: drive ID,
	// model, record.
	WALRecordSize = 4 + 1 + DayRecordSize
)

// AppendDayRecord appends the fixed-width encoding of rec.
func AppendDayRecord(buf []byte, rec *DayRecord) []byte {
	n := len(buf)
	buf = slices.Grow(buf, DayRecordSize)[:n+DayRecordSize]
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
	for k := 0; k < NumErrorKinds; k++ {
		le.PutUint32(b[off:], rec.Errors[k])
		off += 4
	}
	for k := 0; k < NumErrorKinds; k++ {
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

// DecodeDayRecord decodes the fixed-width record at the front of b,
// which holds at least DayRecordSize bytes, into rec.
func DecodeDayRecord(b []byte, rec *DayRecord) {
	b = b[:DayRecordSize]
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
	for k := 0; k < NumErrorKinds; k++ {
		rec.Errors[k] = le.Uint32(b[off:])
		off += 4
	}
	for k := 0; k < NumErrorKinds; k++ {
		rec.CumErrors[k] = le.Uint64(b[off:])
		off += 8
	}
	flags := b[off]
	rec.Dead = flags&1 != 0
	rec.ReadOnly = flags&2 != 0
}

// AppendWALRecord appends the WAL payload for one drive's report.
func AppendWALRecord(buf []byte, id uint32, model Model, rec *DayRecord) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = append(buf, byte(model))
	return AppendDayRecord(buf, rec)
}

// DecodeWALRecord decodes a payload written by AppendWALRecord. Its
// messages are part of the ingest and replication replies, so they keep
// the daemon's "serve:" prefix.
func DecodeWALRecord(b []byte) (uint32, Model, DayRecord, error) {
	if len(b) != WALRecordSize {
		return 0, 0, DayRecord{}, fmt.Errorf("serve: WAL record is %d bytes, want %d", len(b), WALRecordSize)
	}
	id := binary.LittleEndian.Uint32(b)
	model := Model(b[4])
	if int(model) >= NumModels {
		return 0, 0, DayRecord{}, fmt.Errorf("serve: WAL record has unknown model %d", b[4])
	}
	var rec DayRecord
	DecodeDayRecord(b[5:], &rec)
	return id, model, rec, nil
}

// SSDB binary ingest batch: a 12-byte header, then one frame per record,
// every frame exactly BinFrameSize bytes:
//
//	"SSDB" | version u32 LE (=1) | count u32 LE
//	count × ( len u32 LE | crc32c u32 LE | WAL record payload )
//
// A frame's payload is the record's WAL payload and its header is the
// WAL's frame header, so a daemon journals an accepted frame verbatim
// and a router splits a batch by slicing frames out of it.

const (
	binMagic   = "SSDB"
	binVersion = 1

	// BinHeaderSize is the byte length of the batch header.
	BinHeaderSize = 12
	// BinRecordSize is the payload length of one record frame.
	BinRecordSize = WALRecordSize
	// BinFrameSize is the on-wire cost of one record including its frame
	// header.
	BinFrameSize = FrameOverhead + BinRecordSize
)

// errBinStride is returned when the frames after a header do not add up
// to the declared count.
var errBinStride = errors.New("batch length does not match declared record count")

// AppendBinHeader appends the batch header for count records.
func AppendBinHeader(dst []byte, count int) []byte {
	dst = append(dst, binMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, binVersion)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// AppendBinRecord appends one framed record to a batch body.
func AppendBinRecord(dst []byte, id uint32, model Model, rec *DayRecord) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	dst = AppendWALRecord(dst, id, model, rec)
	return EndFrame(dst, start)
}

// ParseBinHeader validates a batch header and returns the declared
// record count and the frame bytes that follow. Every frame has a fixed
// stride, so the count must match the body length exactly; this rejects
// length-prefix overflow and truncation before any record is looked at.
// The messages are the 400 reply of every endpoint that takes a batch.
func ParseBinHeader(b []byte) (count int, rest []byte, err error) {
	if len(b) < BinHeaderSize {
		return 0, nil, fmt.Errorf("serve: binary batch header truncated: %d of %d bytes", len(b), BinHeaderSize)
	}
	//ssdlint:allow hotalloc a conversion compared against a constant is not materialized
	if string(b[:4]) != binMagic {
		return 0, nil, errors.New("serve: not a binary ingest batch (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != binVersion {
		return 0, nil, fmt.Errorf("serve: unsupported binary ingest version %d", v)
	}
	count, rest = int(binary.LittleEndian.Uint32(b[8:])), b[BinHeaderSize:]
	if int64(count)*int64(BinFrameSize) != int64(len(rest)) {
		return 0, nil, errBinStride
	}
	return count, rest, nil
}

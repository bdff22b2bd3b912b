package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Binary codec
//
// The binary format is a compact little-endian stream:
//
//	magic "SSDT" | version u32 | horizon i32 | driveCount u32
//	per drive: id u32 | model u8 | dayCount u32 | swapCount u32
//	           dayCount * DayRecord (record.go) | swapCount * i32
//
// It exists so multi-gigabyte fleets round-trip quickly between the
// generator and the analysis tools without reparsing text.

const (
	binaryMagic   = "SSDT"
	binaryVersion = 1

	// Counts in the header are read from the file, so ReadBinary never
	// allocates more than this many elements (< 1 MiB) ahead of the
	// bytes that fill them; longer slices grow as their records arrive.
	// 4096 days covers the simulator's horizons in one allocation.
	maxPreallocDrives = 1 << 12
	maxPreallocDays   = 1 << 12
)

var errBadMagic = errors.New("trace: bad magic; not a binary fleet stream")

// WriteBinary serializes the fleet to w in the binary format.
func WriteBinary(w io.Writer, f *Fleet) error {
	const flushAt = 1 << 20
	le := binary.LittleEndian
	buf := make([]byte, 0, flushAt+DayRecordSize)
	buf = append(buf, binaryMagic...)
	buf = le.AppendUint32(buf, binaryVersion)
	buf = le.AppendUint32(buf, uint32(f.Horizon))
	buf = le.AppendUint32(buf, uint32(len(f.Drives)))
	for i := range f.Drives {
		d := &f.Drives[i]
		buf = le.AppendUint32(buf, d.ID)
		buf = append(buf, byte(d.Model))
		buf = le.AppendUint32(buf, uint32(len(d.Days)))
		buf = le.AppendUint32(buf, uint32(len(d.Swaps)))
		for j := range d.Days {
			if len(buf) >= flushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = AppendDayRecord(buf, &d.Days[j])
		}
		for _, s := range d.Swaps {
			buf = le.AppendUint32(buf, uint32(s.Day))
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinary deserializes a fleet previously written by WriteBinary. A
// stream that ends before the records its header counts is an error.
func ReadBinary(r io.Reader) (*Fleet, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var scratch [DayRecordSize]byte
	read := func(n int) ([]byte, error) {
		if _, err := io.ReadFull(br, scratch[:n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return scratch[:n], nil
	}
	hdr, err := read(16)
	if err != nil {
		return nil, err
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, errBadMagic
	}
	if ver := binary.LittleEndian.Uint32(hdr[4:]); ver != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", ver)
	}
	nd := binary.LittleEndian.Uint32(hdr[12:])
	f := &Fleet{
		Horizon: int32(binary.LittleEndian.Uint32(hdr[8:])),
		Drives:  make([]Drive, 0, min(nd, maxPreallocDrives)),
	}
	for range nd {
		b, err := read(13)
		if err != nil {
			return nil, err
		}
		d := Drive{ID: binary.LittleEndian.Uint32(b), Model: Model(b[4])}
		ndays, nswaps := binary.LittleEndian.Uint32(b[5:]), binary.LittleEndian.Uint32(b[9:])
		if ndays > 0 {
			d.Days = make([]DayRecord, 0, min(ndays, maxPreallocDays))
		}
		for range ndays {
			b, err := read(DayRecordSize)
			if err != nil {
				return nil, err
			}
			d.Days = append(d.Days, DayRecord{})
			DecodeDayRecord(b, &d.Days[len(d.Days)-1])
		}
		if nswaps > 0 {
			d.Swaps = make([]SwapEvent, 0, min(nswaps, maxPreallocDays))
		}
		for range nswaps {
			b, err := read(4)
			if err != nil {
				return nil, err
			}
			d.Swaps = append(d.Swaps, SwapEvent{Day: int32(binary.LittleEndian.Uint32(b))})
		}
		f.Drives = append(f.Drives, d)
	}
	return f, nil
}

// CSV codec
//
// Two row kinds share one file, distinguished by the first column:
//
//	D,driveID,model,day,age,reads,writes,erases,cumReads,cumWrites,
//	  cumErases,peCycles,factoryBB,grownBB,e0..e9,c0..c9,dead,readonly
//	S,driveID,model,day
//
// Rows for one drive are contiguous and sorted; this is the
// interchange format for inspecting fleets with external tools.

// csvHeader documents the column layout of D rows.
var csvHeader = "#kind,drive,model,day,age,reads,writes,erases,cum_reads,cum_writes,cum_erases,pe_cycles,factory_bb,grown_bb," +
	"e_correctable,e_erase,e_final_read,e_final_write,e_meta,e_read,e_response,e_timeout,e_uncorrectable,e_write," +
	"c_correctable,c_erase,c_final_read,c_final_write,c_meta,c_read,c_response,c_timeout,c_uncorrectable,c_write,dead,read_only"

// WriteCSV serializes the fleet as CSV rows, preceded by a header comment
// and a fleet pragma line carrying the horizon.
func WriteCSV(w io.Writer, f *Fleet) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintln(bw, csvHeader)
	fmt.Fprintf(bw, "#horizon,%d\n", f.Horizon)
	var buf []byte
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for i := range f.Drives {
		d := &f.Drives[i]
		for j := range d.Days {
			r := &d.Days[j]
			buf = buf[:0]
			buf = append(buf, 'D', ',')
			buf = strconv.AppendUint(buf, uint64(d.ID), 10)
			buf = append(buf, ',')
			buf = append(buf, d.Model.String()...)
			for _, v := range []int64{int64(r.Day), int64(r.Age)} {
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, v, 10)
			}
			for _, v := range []uint64{r.Reads, r.Writes, r.Erases, r.CumReads, r.CumWrites, r.CumErases} {
				buf = append(buf, ',')
				buf = strconv.AppendUint(buf, v, 10)
			}
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, r.PECycles, 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, uint64(r.FactoryBadBlocks), 10)
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, uint64(r.GrownBadBlocks), 10)
			for k := 0; k < NumErrorKinds; k++ {
				buf = append(buf, ',')
				buf = strconv.AppendUint(buf, uint64(r.Errors[k]), 10)
			}
			for k := 0; k < NumErrorKinds; k++ {
				buf = append(buf, ',')
				buf = strconv.AppendUint(buf, r.CumErrors[k], 10)
			}
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(b2i(r.Dead)), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(b2i(r.ReadOnly)), 10)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		for _, s := range d.Swaps {
			if _, err := fmt.Fprintf(bw, "S,%d,%s,%d\n", d.ID, d.Model, s.Day); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a fleet from the CSV format emitted by WriteCSV. Rows may
// arrive in any drive order, but rows within a drive must be sorted by day
// (as WriteCSV emits them).
func ReadCSV(r io.Reader) (*Fleet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	f := &Fleet{}
	index := map[uint32]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if line[0] == '#' {
			var h int32
			if n, _ := fmt.Sscanf(line, "#horizon,%d", &h); n == 1 {
				f.Horizon = h
			}
			continue
		}
		fields := splitComma(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: line %d: too few fields", lineNo)
		}
		id64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: drive id: %v", lineNo, err)
		}
		id := uint32(id64)
		model, err := ParseModel(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		di, ok := index[id]
		if !ok {
			di = len(f.Drives)
			index[id] = di
			f.Drives = append(f.Drives, Drive{ID: id, Model: model})
		}
		d := &f.Drives[di]
		switch fields[0] {
		case "S":
			day, err := strconv.ParseInt(fields[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: swap day: %v", lineNo, err)
			}
			d.Swaps = append(d.Swaps, SwapEvent{Day: int32(day)})
		case "D":
			if len(fields) != 36 {
				return nil, fmt.Errorf("trace: line %d: want 36 fields for D row, got %d", lineNo, len(fields))
			}
			var rec DayRecord
			ints := make([]uint64, 0, 34)
			for fi := 3; fi < 36; fi++ {
				if fi == 11 { // pe_cycles is float
					pe, err := strconv.ParseFloat(fields[fi], 64)
					if err != nil {
						return nil, fmt.Errorf("trace: line %d: pe_cycles: %v", lineNo, err)
					}
					rec.PECycles = pe
					continue
				}
				v, err := strconv.ParseUint(fields[fi], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d field %d: %v", lineNo, fi, err)
				}
				ints = append(ints, v)
			}
			rec.Day = int32(ints[0])
			rec.Age = int32(ints[1])
			rec.Reads, rec.Writes, rec.Erases = ints[2], ints[3], ints[4]
			rec.CumReads, rec.CumWrites, rec.CumErases = ints[5], ints[6], ints[7]
			rec.FactoryBadBlocks = uint32(ints[8])
			rec.GrownBadBlocks = uint32(ints[9])
			for k := 0; k < NumErrorKinds; k++ {
				rec.Errors[k] = uint32(ints[10+k])
			}
			for k := 0; k < NumErrorKinds; k++ {
				rec.CumErrors[k] = ints[20+k]
			}
			rec.Dead = ints[30] != 0
			rec.ReadOnly = ints[31] != 0
			d.Days = append(d.Days, rec)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown row kind %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// splitComma splits on commas without allocating a new string per field
// beyond the slice header; trace CSV never contains quoted fields.
func splitComma(s string) []string {
	n := 1
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			n++
		}
	}
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

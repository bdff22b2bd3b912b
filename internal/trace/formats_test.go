package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The fixtures in testdata/formats pin the bytes of four formats as
// they were first written: fleet.ssdt by `ssdgen -seed 51 -drives 1
// -horizon 90`, batch.ssdb holding the first two reports of each of its
// drives, and the WAL segment and /v1/wal/stream reply body an
// ssdserved wrote after accepting that batch. A format change adds a
// fixture; none is ever edited.

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "formats", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormatFixturesRoundTrip decodes every fixture and re-encodes what
// it decoded to the same bytes.
func TestFormatFixturesRoundTrip(t *testing.T) {
	t.Run("ssdt", func(t *testing.T) {
		want := readFixture(t, "fleet.ssdt")
		f, err := ReadBinary(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Drives) != 3 || f.SwapCount() != 1 {
			t.Fatalf("decoded %d drives, %d swaps; want 3 and 1", len(f.Drives), f.SwapCount())
		}
		var got bytes.Buffer
		if err := WriteBinary(&got, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("re-encoded fleet differs from the fixture")
		}
	})

	// The three record carriers hold the same five records.
	type walRecord struct {
		id    uint32
		model Model
		rec   DayRecord
	}
	decode := func(t *testing.T, payload []byte) walRecord {
		t.Helper()
		id, model, rec, err := DecodeWALRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		return walRecord{id, model, rec}
	}
	var batch []walRecord
	t.Run("ssdb", func(t *testing.T) {
		want := readFixture(t, "batch.ssdb")
		count, rest, err := ParseBinHeader(want)
		if err != nil {
			t.Fatal(err)
		}
		for range count {
			var payload []byte
			if payload, rest, err = NextFrame(rest, BinRecordSize); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, decode(t, payload))
		}
		got := AppendBinHeader(nil, len(batch))
		for _, r := range batch {
			got = AppendBinRecord(got, r.id, r.model, &r.rec)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("re-encoded batch differs from the fixture")
		}
	})
	t.Run("wal", func(t *testing.T) {
		want := readFixture(t, "wal-00000000000000000001.seg")
		var got []byte
		var recs []walRecord
		for rest := want; len(rest) > 0; {
			payload, next, err := NextFrame(rest, WALRecordSize)
			if err != nil {
				t.Fatal(err)
			}
			r := decode(t, payload)
			recs = append(recs, r)
			got = AppendFrame(got, AppendWALRecord(nil, r.id, r.model, &r.rec))
			rest = next
		}
		if !bytes.Equal(got, want) {
			t.Fatal("re-encoded segment differs from the fixture")
		}
		if len(recs) != len(batch) || len(recs) != 5 {
			t.Fatalf("segment holds %d records, batch %d; want 5", len(recs), len(batch))
		}
		for i := range recs {
			if recs[i] != batch[i] {
				t.Fatalf("segment record %d differs from the batch's", i)
			}
		}
	})
	t.Run("stream", func(t *testing.T) {
		want := readFixture(t, "stream.bin")
		var got []byte
		n := 0
		for rest := want; len(rest) > 0; n++ {
			lsn, payload, next, err := NextStreamFrame(rest, WALRecordSize)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(n+1) {
				t.Fatalf("frame %d has lsn %d", n, lsn)
			}
			r := decode(t, payload)
			if n >= len(batch) || r != batch[n] {
				t.Fatalf("stream record %d differs from the batch's", n)
			}
			got = AppendStreamFrame(got, lsn, AppendWALRecord(nil, r.id, r.model, &r.rec))
			rest = next
		}
		if n != len(batch) || !bytes.Equal(got, want) {
			t.Fatalf("re-encoded stream (%d frames) differs from the fixture", n)
		}
	})
}

// TestReadBinaryBoundsHeaderCounts feeds ReadBinary headers that claim
// 2^32-1 drives, days or swaps over an empty body: it must fail on the
// short stream having allocated far less than the counts ask for.
func TestReadBinaryBoundsHeaderCounts(t *testing.T) {
	const huge = 1<<32 - 1
	le := binary.LittleEndian
	header := func(drives uint32) []byte {
		b := append([]byte(binaryMagic), 0, 0, 0, 0, 0, 0, 0, 0)
		le.PutUint32(b[4:], binaryVersion)
		return le.AppendUint32(b, drives)
	}
	drive := func(days, swaps uint32) []byte {
		b := le.AppendUint32(header(1), 7)
		b = append(b, byte(MLCA))
		return le.AppendUint32(le.AppendUint32(b, days), swaps)
	}
	for name, data := range map[string][]byte{
		"drives": header(huge),
		"days":   drive(huge, 0),
		"swaps":  drive(0, huge),
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadBinary(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("allocated %d bytes before failing, want < 1 MiB", got)
			}
		})
	}
}

// TestReadBinaryRejectsWhatWriteBinaryCannotWrite: a drive whose model
// is not a known one, or a record with a flag bit other than dead and
// read-only, fails to decode instead of decoding to a fleet that
// re-encodes to other bytes.
func TestReadBinaryRejectsWhatWriteBinaryCannotWrite(t *testing.T) {
	fixture := readFixture(t, "fleet.ssdt")
	const driveHead, modelAt = 16, 16 + 4
	firstFlags := driveHead + 13 + DayRecordSize - 1
	if binary.LittleEndian.Uint32(fixture[driveHead+5:]) == 0 {
		t.Fatal("the fixture's first drive has no record")
	}
	for _, c := range []struct {
		name string
		at   int
		b    byte
	}{
		{"model", modelAt, byte(NumModels)},
		{"model 255", modelAt, 255},
		{"flag 4", firstFlags, 4},
		{"flag 0x80 beside dead", firstFlags, 0x81},
	} {
		data := bytes.Clone(fixture)
		data[c.at] = c.b
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: byte %d = %#x accepted", c.name, c.at, c.b)
		}
	}
}

// FuzzReadBinary: any input either fails to decode or decodes to a fleet
// that re-encodes to a prefix of the input: the bytes ReadBinary read,
// byte for byte.
func FuzzReadBinary(f *testing.F) {
	fixture := readFixture(f, "fleet.ssdt")
	f.Add(fixture)
	f.Add(fixture[:len(fixture)/2])
	f.Add(fixture[:16])
	encode := func(t *testing.T, data []byte) ([]byte, error) {
		fl, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, fl); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := encode(t, data)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, once) {
			t.Fatalf("%d input bytes re-encode to %d bytes that are not their prefix", len(data), len(once))
		}
	})
}

package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/model"
	"ssdfail/internal/trace"
	"ssdfail/internal/wal"
)

// binFleetBatch builds a /v1/ingest/bin body holding, for every drive
// with at least offset+1 reports, the report offset steps back from its
// last one — the binary twin of fleetDay.
func binFleetBatch(offset int) (body []byte, count int) {
	var frames []byte
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		j := len(d.Days) - 1 - offset
		if j < 0 {
			continue
		}
		frames = trace.AppendBinRecord(frames, d.ID, d.Model, &d.Days[j])
		count++
	}
	body = trace.AppendBinHeader(make([]byte, 0, trace.BinHeaderSize+len(frames)), count)
	return append(body, frames...), count
}

func postBin(t *testing.T, baseURL string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/ingest/bin", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("non-JSON reply (status %d): %q", resp.StatusCode, data)
	}
	return resp.StatusCode, m
}

func replyInt(t *testing.T, m map[string]any, key string) int {
	t.Helper()
	v, ok := m[key].(float64)
	if !ok {
		t.Fatalf("reply field %q missing or not a number: %v", key, m[key])
	}
	return int(v)
}

func TestBinaryIngestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Two consecutive fleet days, previous day first, like the JSON
	// round-trip test — but over the binary wire.
	for _, offset := range []int{1, 0} {
		body, n := binFleetBatch(offset)
		code, m := postBin(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("offset %d: status %d: %v", offset, code, m)
		}
		if got := replyInt(t, m, "accepted"); got != n {
			t.Fatalf("offset %d: accepted %d of %d", offset, got, n)
		}
		if got := replyInt(t, m, "rejected"); got != 0 {
			t.Fatalf("offset %d: rejected %d, want 0", offset, got)
		}
		if m["errors"] != nil {
			t.Fatalf("offset %d: errors = %v, want null", offset, m["errors"])
		}
	}

	// The store must hold exactly what the wire carried.
	d := &fixFleet.Drives[0]
	snap, ok := s.store.Get(d.ID)
	if !ok {
		t.Fatalf("drive %d not in store after binary ingest", d.ID)
	}
	last := &d.Days[len(d.Days)-1]
	got := &snap.Recent[len(snap.Recent)-1]
	if got.Day != last.Day || got.Age != last.Age || got.GrownBadBlocks != last.GrownBadBlocks {
		t.Fatalf("drive %d: stored last record %+v, want %+v", d.ID, got, last)
	}
	if snap.Model != d.Model {
		t.Fatalf("drive %d: model %v, want %v", d.ID, snap.Model, d.Model)
	}

	// And the ingested drives must be scoreable over HTTP.
	resp := getJSON(t, fmt.Sprintf("%s/v1/drive/%d", ts.URL, d.ID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/drive/%d: status %d", d.ID, resp.StatusCode)
	}

	// Replaying an already-applied day conflicts on every record: 422,
	// with the error list capped at 10.
	body, n := binFleetBatch(0)
	code, m := postBin(t, ts.URL, body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate batch: status %d, want 422", code)
	}
	if got := replyInt(t, m, "rejected"); got != n {
		t.Fatalf("duplicate batch: rejected %d, want %d", got, n)
	}
	errs, ok := m["errors"].([]any)
	if !ok || len(errs) == 0 || len(errs) > 10 {
		t.Fatalf("duplicate batch: errors = %v, want 1..10 entries", m["errors"])
	}
}

func TestBinaryIngestRejectsBadBatches(t *testing.T) {
	valid, count := binFleetBatch(1)
	if count < 3 {
		t.Fatalf("fixture fleet too small: %d records", count)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}

	t.Run("transport-errors", func(t *testing.T) {
		_, ts := newTestServer(t, nil)
		cases := []struct {
			name string
			body []byte
			want int
		}{
			{"empty-body", nil, http.StatusBadRequest},
			{"short-header", valid[:trace.BinHeaderSize-4], http.StatusBadRequest},
			{"bad-magic", mutate(func(b []byte) { b[0] = 'X' }), http.StatusBadRequest},
			{"bad-version", mutate(func(b []byte) {
				binary.LittleEndian.PutUint32(b[4:], 9)
			}), http.StatusBadRequest},
			{"count-overflow", mutate(func(b []byte) {
				binary.LittleEndian.PutUint32(b[8:], uint32(count)+1)
			}), http.StatusBadRequest},
			{"count-undercount", mutate(func(b []byte) {
				binary.LittleEndian.PutUint32(b[8:], uint32(count)-1)
			}), http.StatusBadRequest},
			{"truncated-tail", valid[:len(valid)-1], http.StatusBadRequest},
			// The frame's length prefix claims far more than one record;
			// NextFrame must refuse before trusting it.
			{"huge-length-prefix", mutate(func(b []byte) {
				binary.LittleEndian.PutUint32(b[trace.BinHeaderSize:], 0xFFFFFF00)
			}), http.StatusBadRequest},
		}
		for _, tc := range cases {
			code, m := postBin(t, ts.URL, tc.body)
			if code != tc.want {
				t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, m)
			}
			// None of these shapes may apply anything.
			if acc, ok := m["accepted"].(float64); ok && acc != 0 {
				t.Errorf("%s: accepted %v records from a rejected batch", tc.name, acc)
			}
		}
	})

	t.Run("crc-flip-mid-batch", func(t *testing.T) {
		_, ts := newTestServer(t, nil)
		// Corrupt the second frame's payload without fixing its CRC:
		// frame 0 lands, the rest of the body is untrusted.
		body := mutate(func(b []byte) {
			b[trace.BinHeaderSize+trace.BinFrameSize+trace.FrameOverhead+20] ^= 0xFF
		})
		code, m := postBin(t, ts.URL, body)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %v", code, m)
		}
		if got := replyInt(t, m, "accepted"); got != 1 {
			t.Errorf("accepted = %d, want 1 (frame before the corruption)", got)
		}
		if got := replyInt(t, m, "dropped"); got != count-1 {
			t.Errorf("dropped = %d, want %d", got, count-1)
		}
	})

	t.Run("non-canonical-flags", func(t *testing.T) {
		_, ts := newTestServer(t, nil)
		// Set a reserved flag bit and fix the CRC so the frame itself is
		// sound: the record must be rejected per-record (the journaled
		// bytes would otherwise differ from the canonical re-encoding).
		d := &fixFleet.Drives[0]
		frame := trace.AppendBinRecord(nil, d.ID, d.Model, &d.Days[len(d.Days)-1])
		payload := frame[trace.FrameOverhead:]
		payload[trace.BinRecordSize-1] |= 4
		binary.LittleEndian.PutUint32(frame[4:], trace.FrameCRC(payload))
		body := append(trace.AppendBinHeader(nil, 1), frame...)
		code, m := postBin(t, ts.URL, body)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422: %v", code, m)
		}
		if got := replyInt(t, m, "rejected"); got != 1 {
			t.Errorf("rejected = %d, want 1", got)
		}
		errs, ok := m["errors"].([]any)
		if !ok || len(errs) != 1 {
			t.Fatalf("errors = %v, want exactly one entry", m["errors"])
		}
	})

	t.Run("empty-batch", func(t *testing.T) {
		_, ts := newTestServer(t, nil)
		code, m := postBin(t, ts.URL, trace.AppendBinHeader(nil, 0))
		if code != http.StatusAccepted {
			t.Fatalf("status %d, want 202: %v", code, m)
		}
		if got := replyInt(t, m, "accepted"); got != 0 {
			t.Errorf("accepted = %d, want 0", got)
		}
	})
}

// TestBinaryIngestSteadyStateAllocs pins the tentpole contract: once a
// drive's history ring is warm and the WAL buffer has reached its flush
// capacity, ingesting a binary batch — decode, validate, store commit,
// journal append, response render — allocates nothing, with and without
// a journal.
func TestBinaryIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; alloc counts are only meaningful without -race")
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"store-only", nil},
		{"journaled", func(c *Config) {
			c.WALDir = t.TempDir()
			c.SnapshotEvery = -1 // snapshots copy the store; not the path under test
			c.WALSyncEvery = wal.SyncNever
			c.WALSyncInterval = -1
			c.WALSegmentBytes = 1 << 30 // rotation opens files; keep one segment
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{ModelPath: fixModelPath}
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })

			// A fixed 16-drive batch; each run advances every record one
			// day in place and re-stamps the frame CRCs, so every run is
			// a fresh, fully valid batch against the same body buffer.
			const n = 16
			model := fixFleet.Drives[0].Model
			var frames []byte
			for i := 0; i < n; i++ {
				rec := trace.DayRecord{
					Day: 1000, Age: 40,
					Reads: 5, Writes: 3, Erases: 1,
					CumReads: 500, CumWrites: 300, CumErases: 100,
					PECycles: 12.5, FactoryBadBlocks: 4, GrownBadBlocks: 2,
				}
				rec.Errors[0] = 1
				rec.CumErrors[0] = 9
				frames = trace.AppendBinRecord(frames, uint32(1<<20+i), model, &rec)
			}
			body := append(trace.AppendBinHeader(make([]byte, 0, trace.BinHeaderSize+len(frames)), n), frames...)

			ctx := context.Background()
			var fail string
			run := func() {
				for i := 0; i < n; i++ {
					off := trace.BinHeaderSize + i*trace.BinFrameSize
					p := body[off+trace.FrameOverhead : off+trace.BinFrameSize]
					// The store requires matching day/age deltas; bump both.
					binary.LittleEndian.PutUint32(p[5:], binary.LittleEndian.Uint32(p[5:])+1)
					binary.LittleEndian.PutUint32(p[9:], binary.LittleEndian.Uint32(p[9:])+1)
					binary.LittleEndian.PutUint32(body[off+4:], trace.FrameCRC(p))
				}
				st := s.acquireBinState()
				res := s.runBinBatch(ctx, body, st)
				if fail == "" && (res.code != http.StatusAccepted || res.accepted != n || res.rejected != 0) {
					fail = fmt.Sprintf("batch not cleanly accepted: code=%d accepted=%d rejected=%d resp=%s",
						res.code, res.accepted, res.rejected, st.resp)
				}
				s.releaseBinState(st)
			}

			// Warm until the history rings are full (shifts in place from
			// then on) and, when journaled, the WAL buffer has grown past
			// its flush threshold so appends reuse capacity.
			for i := 0; i < 32; i++ {
				run()
			}
			if fail != "" {
				t.Fatal(fail)
			}
			if a := testing.AllocsPerRun(100, run); a != 0 {
				t.Errorf("steady-state binary ingest: %.1f allocs/op, want 0", a)
			}
			if fail != "" {
				t.Fatal(fail)
			}
		})
	}
}

// TestPredictorFlatScoreGolden proves the serving predictor's two
// scoring entry points — allocating single-record and the whole-matrix
// path — bit-identical on the package's fixture model, and pins the hot
// one, the whole-matrix path, to zero allocations.
func TestPredictorFlatScoreGolden(t *testing.T) {
	pred, err := model.LoadPredictor(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	var m dataset.Matrix
	type pair struct{ r, prev *trace.DayRecord }
	var pairs []pair
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		if len(d.Days) < 2 {
			continue
		}
		p := pair{r: &d.Days[len(d.Days)-1], prev: &d.Days[len(d.Days)-2]}
		pairs = append(pairs, p)
		m.AppendFeatureRow(p.r, p.prev)
	}
	if len(pairs) == 0 {
		t.Fatal("fixture fleet has no drives with two reports")
	}
	out := make([]float64, len(pairs))
	pred.ScoreMatrix(&m, out)
	for i, p := range pairs {
		want := pred.ScoreRecord(p.r, p.prev)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("drive %d: ScoreMatrix = %v, ScoreRecord = %v", i, out[i], want)
		}
	}
	if a := testing.AllocsPerRun(50, func() { pred.ScoreMatrix(&m, out) }); a != 0 {
		t.Errorf("ScoreMatrix: %.1f allocs/op, want 0", a)
	}
}

// FuzzDecodeIngestFrame throws arbitrary bodies at the full binary
// batch path of a journaled server. Invariants: no panic, the reply is
// always valid JSON, the accounting never exceeds the declared count,
// and only the four documented status codes come back.
func FuzzDecodeIngestFrame(f *testing.F) {
	s, err := New(Config{
		ModelPath:       fixModelPath,
		WALDir:          f.TempDir(),
		SnapshotEvery:   -1,
		WALSyncEvery:    wal.SyncNever,
		WALSyncInterval: -1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	valid, _ := binFleetBatch(1)
	two := valid[:trace.BinHeaderSize+2*trace.BinFrameSize]
	two = append([]byte(nil), two...)
	binary.LittleEndian.PutUint32(two[8:], 2)
	f.Add(append([]byte(nil), two...))
	f.Add([]byte{})
	f.Add(two[:trace.BinHeaderSize])
	f.Add(two[:len(two)-3])
	for _, i := range []int{0, 5, 9, trace.BinHeaderSize, trace.BinHeaderSize + 6, len(two) - 1} {
		mut := append([]byte(nil), two...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	huge := append([]byte(nil), two...)
	binary.LittleEndian.PutUint32(huge[trace.BinHeaderSize:], 0xFFFFFFF0)
	f.Add(huge)
	over := append([]byte(nil), two...)
	binary.LittleEndian.PutUint32(over[8:], math.MaxUint32)
	f.Add(over)
	flags := append([]byte(nil), two...)
	flags[trace.BinHeaderSize+trace.BinFrameSize-1] |= 0x80
	binary.LittleEndian.PutUint32(flags[trace.BinHeaderSize+4:],
		trace.FrameCRC(flags[trace.BinHeaderSize+trace.FrameOverhead:trace.BinHeaderSize+trace.BinFrameSize]))
	f.Add(flags)

	f.Fuzz(func(t *testing.T, data []byte) {
		st := s.acquireBinState()
		defer s.releaseBinState(st)
		res := s.runBinBatch(context.Background(), data, st)
		if !json.Valid(st.resp) {
			t.Fatalf("reply is not valid JSON: %q", st.resp)
		}
		if res.accepted < 0 || res.rejected < 0 || res.dropped < 0 {
			t.Fatalf("negative accounting: %+v", res)
		}
		if count, _, err := trace.ParseBinHeader(data); err == nil {
			if res.accepted+res.rejected+res.dropped > count {
				t.Fatalf("accounting %d+%d+%d exceeds declared count %d",
					res.accepted, res.rejected, res.dropped, count)
			}
		}
		switch res.code {
		case http.StatusAccepted, http.StatusBadRequest,
			http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d", res.code)
		}
	})
}

package serve

// Tests of the batch loop behind every ingest wire: the JSON and binary
// wires answer the same logical batch with the same reply, counters and
// WAL bytes, and a batch that stops early accounts for every record.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
)

// lateDeadline is a request context whose deadline lands just after the
// batch loop's first check: Err reports nil on its first call and
// DeadlineExceeded on every later one.
type lateDeadline struct {
	context.Context
	calls int
}

func (c *lateDeadline) Err() error {
	c.calls++
	if c.calls == 1 {
		return nil
	}
	return context.DeadlineExceeded
}

// wireRec is one logical record, sendable over either wire.
type wireRec struct {
	id    uint32
	model trace.Model
	rec   trace.DayRecord
}

// batchReply is the decoded reply of either batch endpoint.
type batchReply struct {
	Error    string `json:"error"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Dropped  int    `json:"dropped"`
	Errors   []struct {
		Index   int    `json:"index"`
		DriveID uint32 `json:"drive_id"`
	} `json:"errors"`
}

// postBatch calls a batch handler directly, so the test owns the
// request context, and decodes its reply.
func postBatch(t *testing.T, ctx context.Context, s *Server, binary bool, recs []wireRec) (int, batchReply) {
	t.Helper()
	var (
		body    []byte
		handler = s.handleIngestBatch
	)
	if binary {
		handler = s.handleIngestBin
		body = trace.AppendBinHeader(nil, len(recs))
		for i := range recs {
			body = trace.AppendBinRecord(body, recs[i].id, recs[i].model, &recs[i].rec)
		}
	} else {
		irs := make([]trace.IngestRecord, len(recs))
		for i := range recs {
			irs[i] = trace.WireRecord(recs[i].id, recs[i].model, &recs[i].rec)
		}
		var err error
		if body, err = json.Marshal(irs); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	handler(w, req)
	var reply batchReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply is not JSON (status %d): %q", w.Code, w.Body.Bytes())
	}
	return w.Code, reply
}

// TestJSONBatchEarlyStopCountsEveryRejection pins the accounting of a
// JSON batch cut short by its deadline: rejected counts every rejected
// record, not the capped error list, so accepted + rejected + dropped
// is the batch size.
func TestJSONBatchEarlyStopCountsEveryRejection(t *testing.T) {
	s, err := New(Config{ModelPath: fixModelPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 20 bad records first, then 200 good ones; the deadline check at
	// record 128 stops the batch.
	recs := make([]wireRec, 220)
	for i := range recs {
		recs[i] = wireRec{id: uint32(i), model: trace.Model(i % trace.NumModels), rec: crashRec(i, 0)}
		if i < 20 {
			recs[i].rec.Age = -1
		}
	}
	code, got := postBatch(t, &lateDeadline{Context: context.Background()}, s, false, recs)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %+v", code, got)
	}
	if got.Accepted != 108 || got.Rejected != 20 || got.Dropped != 92 {
		t.Fatalf("accepted %d rejected %d dropped %d, want 108 / 20 / 92",
			got.Accepted, got.Rejected, got.Dropped)
	}
	if len(got.Errors) != 10 {
		t.Fatalf("%d errors listed, want the cap of 10", len(got.Errors))
	}
}

// TestIngestWireParity sends the same logical batches through
// /v1/ingest/batch and /v1/ingest/bin, each into a fresh journaled
// server that already holds days 0 and 1 of a small fleet, and requires
// the same status, accounting, listed errors, rejection-reason counter
// deltas and WAL bytes. Every case is one both wires can express.
func TestIngestWireParity(t *testing.T) {
	const drives = 24
	day := func(k int) []wireRec {
		out := make([]wireRec, drives)
		for d := range out {
			out[d] = wireRec{id: uint32(100 + d), model: trace.Model(d % trace.NumModels), rec: crashRec(d, k)}
		}
		return out
	}
	// spoil applies f to the records at the given indexes of a fresh day 2.
	spoil := func(f func(*wireRec), idx ...int) []wireRec {
		recs := day(2)
		for _, i := range idx {
			f(&recs[i])
		}
		return recs
	}
	negativeAge := func(r *wireRec) { r.rec.Age = -1 }
	bigFleet := make([]wireRec, 220)
	for i := range bigFleet {
		bigFleet[i] = wireRec{id: uint32(1000 + i), model: trace.Model(i % trace.NumModels), rec: crashRec(i, 0)}
		if i < 20 {
			negativeAge(&bigFleet[i])
		}
	}

	type outcome struct {
		Code   int
		Reply  batchReply
		Deltas map[string]float64
		WAL    map[string][]byte
	}
	cases := []struct {
		name     string
		batch    []wireRec
		deadline bool // the deadline lands after the loop's first check
		walFault bool // the batch's tenth WAL write fails
		want     [4]int
	}{
		{name: "all-valid", batch: day(2), want: [4]int{202, 24, 0, 0}},
		{name: "negative-age", batch: spoil(negativeAge, 3), want: [4]int{202, 23, 1, 0}},
		{name: "daily-above-cumulative", batch: spoil(func(r *wireRec) {
			r.rec.Errors[1] = uint32(r.rec.CumErrors[1]) + 1
		}, 5), want: [4]int{202, 23, 1, 0}},
		{name: "store-conflicts", batch: func() []wireRec {
			recs := day(2)
			recs[4].rec = crashRec(4, 0)                                            // day regression
			recs[7].model = trace.Model((int(recs[7].model) + 1) % trace.NumModels) // model change
			return recs
		}(), want: [4]int{202, 22, 2, 0}},
		{name: "over-ten-rejections", batch: spoil(negativeAge, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
			want: [4]int{202, 9, 15, 0}},
		{name: "all-rejected", batch: day(1), want: [4]int{422, 0, 24, 0}},
		{name: "mid-batch-deadline", batch: bigFleet, deadline: true, want: [4]int{503, 108, 20, 92}},
		{name: "wal-failure", batch: spoil(negativeAge, 2), walFault: true, want: [4]int{503, 9, 1, 14}},
	}
	run := func(t *testing.T, binary bool, batch []wireRec, deadline, walFault bool) outcome {
		base := faultfs.Mem()
		inj := faultfs.New(base)
		s, err := New(Config{
			ModelPath:       fixModelPath,
			WALDir:          "/wal",
			WALFS:           inj,
			WALSyncEvery:    1,
			WALSyncInterval: -1,
			SnapshotEvery:   -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if code, r := postBatch(t, context.Background(), s, binary, day(k)); code != http.StatusAccepted || r.Accepted != drives {
				t.Fatalf("setup day %d: status %d: %+v", k, code, r)
			}
		}
		before := s.Metrics().Snapshot()
		if walFault {
			inj.Add(faultfs.Fault{Op: faultfs.OpWrite, N: inj.Count(faultfs.OpWrite) + 10, Mode: faultfs.ModeFail})
		}
		ctx := context.Background()
		if deadline {
			ctx = &lateDeadline{Context: ctx}
		}
		var o outcome
		o.Code, o.Reply = postBatch(t, ctx, s, binary, batch)
		after := s.Metrics().Snapshot()
		o.Deltas = map[string]float64{}
		for _, key := range []string{
			"ssdserved_ingest_records_total",
			`ssdserved_ingest_rejected_total{reason="invalid_record"}`,
			`ssdserved_ingest_rejected_total{reason="store_conflict"}`,
			`ssdserved_ingest_rejected_total{reason="wal_error"}`,
		} {
			o.Deltas[key] = after[key] - before[key]
		}
		s.Close() //nolint:errcheck // a failed WAL reports its error again on close
		o.WAL = map[string][]byte{}
		entries, err := base.ReadDir("/wal")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			f, err := base.OpenFile("/wal/"+e.Name(), os.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if o.WAL[e.Name()], err = io.ReadAll(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		return o
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			js := run(t, false, tc.batch, tc.deadline, tc.walFault)
			bin := run(t, true, tc.batch, tc.deadline, tc.walFault)
			r := js.Reply
			if got := [4]int{js.Code, r.Accepted, r.Rejected, r.Dropped}; got != tc.want {
				t.Errorf("JSON wire: status, accepted, rejected, dropped = %v, want %v", got, tc.want)
			}
			if !reflect.DeepEqual(js.Code, bin.Code) || !reflect.DeepEqual(js.Reply, bin.Reply) {
				t.Errorf("replies differ:\nJSON   %d %+v\nbinary %d %+v", js.Code, js.Reply, bin.Code, bin.Reply)
			}
			if !reflect.DeepEqual(js.Deltas, bin.Deltas) {
				t.Errorf("counter deltas differ:\nJSON   %v\nbinary %v", js.Deltas, bin.Deltas)
			}
			if len(js.WAL) == 0 || !reflect.DeepEqual(js.WAL, bin.WAL) {
				t.Errorf("WAL contents differ (or are empty): JSON %d files, binary %d files", len(js.WAL), len(bin.WAL))
			}
		})
	}
}

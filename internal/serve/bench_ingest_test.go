package serve

// BenchmarkIngestWire drives full HTTP-handler ingest — routing,
// instrumentation, body read, decode, store commit, response render —
// over both wire formats at 1 and 4 concurrent workers, and (when
// SSDFAIL_INGEST_REPORT names a report file) merges an "ingest" section
// with ingest_throughput and allocs_per_op series into it, so CI's
// BENCH_serve.json carries the JSON-vs-binary comparison next to the
// load-conformance latency quantiles.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"ssdfail/internal/trace"
)

const benchBatchRecords = 16

// benchResults accumulates one row per wire/workers configuration; the
// final (longest) run of each sub-benchmark overwrites earlier probes.
var (
	benchResults = map[string]map[string]any{}
	benchOrder   = []string{"json/1", "json/4", "binary/1", "binary/4"}
)

// benchWriter is a ResponseWriter that discards the body; the recorder
// equivalent allocates a fresh buffer per request, which would drown
// the path under test.
type benchWriter struct {
	h    http.Header
	code int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(c int)           { w.code = c }

// benchLane is one worker's private request state: a disjoint set of
// drive IDs, a reusable body advanced one day per iteration, and a
// pre-built request whose reader is rewound instead of reallocated.
type benchLane struct {
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	w    *benchWriter
	step func()
}

// putU8Digits writes v as exactly eight ASCII digits. Day and age in
// the JSON lane bodies start at 10,000,000 so the width never changes
// and the patch is an in-place overwrite.
func putU8Digits(b []byte, v uint32) {
	for i := 7; i >= 0; i-- {
		b[i] = '0' + byte(v%10)
		v /= 10
	}
}

const benchDayBase = 10_000_000

// newJSONLane builds a 16-record JSON batch for worker w and a step
// function that advances every record's day and age by one, patching
// the fixed-width digits in place.
func newJSONLane(w int) *benchLane {
	recs := make([]trace.IngestRecord, benchBatchRecords)
	for i := range recs {
		recs[i] = trace.IngestRecord{
			DriveID: uint32(3<<20 + w*1024 + i),
			Model:   "MLC-A",
			Day:     benchDayBase, Age: benchDayBase,
			Reads: 5, Writes: 3, Erases: 1,
			CumReads: 500, CumWrites: 300, CumErases: 100,
			PECycles: 12.5, FactoryBadBlocks: 4, GrownBadBlocks: 2,
		}
	}
	body, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	var dayOffs, ageOffs []int
	for pos := 0; ; {
		i := bytes.Index(body[pos:], []byte(`"day":`))
		if i < 0 {
			break
		}
		dayOffs = append(dayOffs, pos+i+len(`"day":`))
		pos += i + 1
	}
	for pos := 0; ; {
		i := bytes.Index(body[pos:], []byte(`"age":`))
		if i < 0 {
			break
		}
		ageOffs = append(ageOffs, pos+i+len(`"age":`))
		pos += i + 1
	}
	if len(dayOffs) != benchBatchRecords || len(ageOffs) != benchBatchRecords {
		panic("unexpected JSON layout")
	}
	day := uint32(benchDayBase)
	l := laneRequest(body, "/v1/ingest/batch", "application/json")
	l.step = func() {
		day++
		for _, off := range dayOffs {
			putU8Digits(l.body[off:], day)
		}
		for _, off := range ageOffs {
			putU8Digits(l.body[off:], day)
		}
	}
	return l
}

// newBinaryLane builds the same logical batch on the binary wire; the
// step function bumps day and age inside each frame payload and
// re-stamps the frame CRC.
func newBinaryLane(w int) *benchLane {
	var frames []byte
	for i := 0; i < benchBatchRecords; i++ {
		rec := trace.DayRecord{
			Day: benchDayBase, Age: benchDayBase,
			Reads: 5, Writes: 3, Erases: 1,
			CumReads: 500, CumWrites: 300, CumErases: 100,
			PECycles: 12.5, FactoryBadBlocks: 4, GrownBadBlocks: 2,
		}
		frames = trace.AppendBinRecord(frames, uint32(3<<20+w*1024+i), trace.MLCA, &rec)
	}
	body := append(trace.AppendBinHeader(make([]byte, 0, trace.BinHeaderSize+len(frames)), benchBatchRecords), frames...)
	l := laneRequest(body, "/v1/ingest/bin", "application/octet-stream")
	l.step = func() {
		for i := 0; i < benchBatchRecords; i++ {
			off := trace.BinHeaderSize + i*trace.BinFrameSize
			p := l.body[off+trace.FrameOverhead : off+trace.BinFrameSize]
			binary.LittleEndian.PutUint32(p[5:], binary.LittleEndian.Uint32(p[5:])+1)
			binary.LittleEndian.PutUint32(p[9:], binary.LittleEndian.Uint32(p[9:])+1)
			binary.LittleEndian.PutUint32(l.body[off+4:], trace.FrameCRC(p))
		}
	}
	return l
}

func laneRequest(body []byte, path, contentType string) *benchLane {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	req.Header.Set("Content-Type", contentType)
	return &benchLane{
		body: body,
		rd:   rd,
		req:  req,
		w:    &benchWriter{h: make(http.Header, 4)},
	}
}

func BenchmarkIngestWire(b *testing.B) {
	for _, wire := range []string{"json", "binary"} {
		for _, workers := range []int{1, 4} {
			key := fmt.Sprintf("%s/%d", wire, workers)
			b.Run(fmt.Sprintf("wire=%s/workers=%d", wire, workers), func(b *testing.B) {
				s, err := New(Config{ModelPath: fixModelPath})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				h := s.Handler()
				lanes := make([]*benchLane, workers)
				for w := range lanes {
					if wire == "json" {
						lanes[w] = newJSONLane(w)
					} else {
						lanes[w] = newBinaryLane(w)
					}
				}
				serveOne := func(l *benchLane) {
					l.step()
					l.rd.Reset(l.body)
					l.w.code = 0
					h.ServeHTTP(l.w, l.req)
					if l.w.code != http.StatusAccepted {
						panic(fmt.Sprintf("%s: status %d", key, l.w.code))
					}
				}
				// Warm the history rings and pools so the measured region
				// is the steady state.
				for _, l := range lanes {
					for i := 0; i < 32; i++ {
						serveOne(l)
					}
				}
				iters := make([]int, workers)
				for i := 0; i < b.N; i++ {
					iters[i%workers]++
				}
				var ms0, ms1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						l := lanes[w]
						for i := 0; i < iters[w]; i++ {
							serveOne(l)
						}
					}(w)
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				runtime.ReadMemStats(&ms1)

				rps := float64(b.N*benchBatchRecords) / elapsed.Seconds()
				allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
				b.ReportMetric(rps, "rec/s")
				benchResults[key] = map[string]any{
					"wire":                  wire,
					"workers":               workers,
					"ingest_throughput_rps": rps,
					"allocs_per_op":         allocs,
				}
			})
		}
	}
	writeIngestReport(b)
}

// BenchmarkBinBatchProcess isolates the zero-allocation core — decode,
// validate, commit, render — without the HTTP layer, on the store-only
// configuration. This is the 0 B/op line the alloc tests pin.
func BenchmarkBinBatchProcess(b *testing.B) {
	s, err := New(Config{ModelPath: fixModelPath})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	l := newBinaryLane(0)
	ctx := b.Context()
	run := func() {
		l.step()
		st := s.acquireBinState()
		res := s.runBinBatch(ctx, l.body, st)
		if res.code != http.StatusAccepted {
			panic(fmt.Sprintf("status %d: %s", res.code, st.resp))
		}
		s.releaseBinState(st)
	}
	for i := 0; i < 32; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchJournalFleet is the durability benchmarks' fixture: 20k drives,
// eight days each, behind a journal on the real filesystem that
// snapshots only when asked.
const (
	benchJournalDrives = 20000
	benchJournalDays   = 8
)

func benchJournalFleet(b *testing.B, dir string) *Journal {
	b.Helper()
	j, err := OpenJournal(NewStore(0, 0), JournalOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchJournalDrives*benchJournalDays; i++ {
		drive, day := i%benchJournalDrives, i/benchJournalDrives
		if err := j.Upsert(uint32(drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
			b.Fatal(err)
		}
	}
	return j
}

// BenchmarkJournalSnapshot writes one snapshot of the fixture per
// iteration: encode out of the report column, write, fsync, rename.
// allocs/op is the constant the allocation test pins; B/snapshot is the
// file.
func BenchmarkJournalSnapshot(b *testing.B) {
	j := benchJournalFleet(b, b.TempDir())
	defer j.Close()
	if err := j.Snapshot(); err != nil { // sizes the section buffer
		b.Fatal(err)
	}
	before := j.WALStats().SnapshotBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(j.WALStats().SnapshotBytes-before)/float64(b.N), "B/snapshot")
}

// BenchmarkRecover boots from what the snapshot trigger leaves behind at
// its worst: a snapshot of the whole fixture plus a tail of as many WAL
// records again as the store retains.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	j := benchJournalFleet(b, dir)
	if err := j.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchJournalDrives*2; i++ { // two reports a drive: what the store retains
		drive, day := i%benchJournalDrives, benchJournalDays+i/benchJournalDrives
		if err := j.Upsert(uint32(drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := OpenJournal(NewStore(0, 0), JournalOptions{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rec := j.Recovery(); rec.SnapshotDrives != benchJournalDrives || rec.Replayed != benchJournalDrives*2 {
			b.Fatalf("recovery %+v, want %d drives loaded and %d records replayed", rec, benchJournalDrives, benchJournalDrives*2)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// writeIngestReport merges the collected series into the JSON
// report named by SSDFAIL_INGEST_REPORT (read-modify-write, so the
// ssdload conformance report written earlier in the CI job survives).
func writeIngestReport(b *testing.B) {
	path := os.Getenv("SSDFAIL_INGEST_REPORT")
	if path == "" {
		return
	}
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			b.Fatalf("existing report %s is not JSON: %v", path, err)
		}
	}
	series := make([]map[string]any, 0, len(benchOrder))
	for _, key := range benchOrder {
		if row, ok := benchResults[key]; ok {
			series = append(series, row)
		}
	}
	ingest := map[string]any{
		"batch_records": benchBatchRecords,
		"series":        series,
	}
	if j, ok := benchResults["json/1"]; ok {
		if bin, ok := benchResults["binary/1"]; ok {
			ingest["binary_speedup_workers1"] =
				bin["ingest_throughput_rps"].(float64) / j["ingest_throughput_rps"].(float64)
		}
	}
	doc["ingest"] = ingest
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatalf("encoding ingest report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("writing ingest report: %v", err)
	}
}

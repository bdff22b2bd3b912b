package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/dataset"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
	"ssdfail/internal/wal"
)

// The layer ladder: each per-layer metric that names a public function
// is timed by calling that function directly on the workload's own
// inputs, single-threaded, from here. Every step is one span; its
// parent is the span of the step that calls it in production, so the
// written trace reads as the production call tree even though the steps
// run one after another.

// tracer carries one traced pass's recorder, outcome and scratch space.
type tracer struct {
	rec *Recorder
	o   *Outcome
	env *Env
}

func newTracer(o *Outcome, env *Env) *tracer {
	return &tracer{rec: NewRecorder(), o: o, env: env}
}

// finish fills in the metrics every traced pass reports, gives every
// other per-layer metric the value 0, and writes the spans out if asked.
func (t *tracer) finish(cfg RunConfig, in *Inputs) error {
	if in != nil {
		t.o.set("fleetsim.generate_s", "s", in.GenerateS)
		t.o.set("failure.analyze_s", "s", in.AnalyzeS)
	}
	t.o.set("bench.build_s", "s", t.env.BuildS)
	t.o.fillZeros(PerLayer)
	if cfg.TraceOut != "" {
		return t.rec.WriteFile(cfg.TraceOut)
	}
	return nil
}

// perRec converts a duration over n records to nanoseconds per record.
func perRec(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// eachPayload walks every record frame of binary ingest bodies.
func eachPayload(scheds []*Schedule, fn func(payload []byte) error) error {
	for _, s := range scheds {
		for _, body := range s.Bodies {
			_, rest, err := serve.ParseBinHeader(body)
			if err != nil {
				return err
			}
			for len(rest) > 0 {
				payload, next, err := trace.NextFrame(rest, serve.BinRecordSize)
				if err != nil {
					return err
				}
				if err := fn(payload); err != nil {
					return err
				}
				rest = next
			}
		}
	}
	return nil
}

// payloadsOf slices every record payload out of binary ingest bodies.
func payloadsOf(scheds ...*Schedule) ([][]byte, error) {
	var out [][]byte
	err := eachPayload(scheds, func(p []byte) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

// frameDecode times the binary wire's decode: frame walk plus record
// decode, over every body.
func (t *tracer) frameDecode(parent int, scheds ...*Schedule) (float64, error) {
	var n int
	var derr error
	d := t.rec.Time("trace.frame_decode", parent, func() {
		derr = eachPayload(scheds, func(p []byte) error {
			n++
			_, _, _, err := serve.DecodeWALRecord(p)
			return err
		})
	})
	ns := perRec(d, n)
	t.o.set("trace.frame_decode_ns_per_rec", "ns", ns)
	return ns, derr
}

// jsonDecode times the JSON wire's decode: unmarshal plus the
// conversion and validation of every record.
func (t *tracer) jsonDecode(parent int, s *Schedule) error {
	var n int
	var derr error
	d := t.rec.Time("serve.json_decode", parent, func() {
		for _, body := range s.Bodies {
			var batch []serve.IngestRecord
			if derr = json.Unmarshal(body, &batch); derr != nil {
				return
			}
			for i := range batch {
				if _, _, derr = batch[i].ToRecord(); derr != nil {
					return
				}
				n++
			}
		}
	})
	t.o.set("serve.json_decode_ns_per_rec", "ns", perRec(d, n))
	return derr
}

// storeUpsert times Store.Upsert of every record into a fresh store and
// measures the heap the resident store holds per drive.
func (t *tracer) storeUpsert(parent int, recs []Rec) (*serve.Store, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	store := serve.NewStore(0, 0)
	var uerr error
	d := t.rec.Time("serve.store_upsert", parent, func() {
		for _, r := range recs {
			if uerr = store.Upsert(r.ID, r.Model, *r.Day); uerr != nil {
				return
			}
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.o.set("serve.store_upsert_ns_per_rec", "ns", perRec(d, len(recs)))
	if store.Len() > 0 && after.HeapAlloc > before.HeapAlloc {
		t.o.set("serve.store_heap_bytes_per_drive", "B", float64(after.HeapAlloc-before.HeapAlloc)/float64(store.Len()))
	}
	return store, uerr
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// walAppend times the log alone: open at defaults, append every
// payload, sync. It returns the directory, which now holds a log of
// every record and no snapshot.
func (t *tracer) walAppend(parent int, payloads [][]byte) (string, error) {
	dir, err := t.env.TempDir("ladder-wal")
	if err != nil {
		return "", err
	}
	log, _, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		return dir, err
	}
	var aerr error
	d := t.rec.Time("wal.append", parent, func() {
		for _, p := range payloads {
			if _, aerr = log.Append(p); aerr != nil {
				return
			}
		}
		aerr = log.Sync()
	})
	st := log.Stats()
	if err := log.Close(); err != nil && aerr == nil {
		aerr = err
	}
	n := len(payloads)
	t.o.set("wal.append_ns_per_rec", "ns", perRec(d, n))
	if n > 0 {
		t.o.set("wal.fsyncs_per_krec", "count", float64(st.Fsyncs)/float64(n)*1e3)
		t.o.set("wal.bytes_per_rec", "B", float64(dirBytes(dir))/float64(n))
	}
	t.o.set("wal.rotations", "count", float64(st.Rotations))
	return dir, aerr
}

// journalUpsert times the durability layer as ingest drives it: open at
// defaults (background snapshots on), UpsertPayload for every record,
// then one explicit snapshot at full residency. It returns the
// per-record cost and the directory, which ends with a snapshot that
// covers everything.
func (t *tracer) journalUpsert(parent int, recs []Rec, payloads [][]byte) (float64, string, error) {
	dir, err := t.env.TempDir("ladder-journal")
	if err != nil {
		return 0, "", err
	}
	j, err := serve.OpenJournal(serve.NewStore(0, 0), serve.JournalOptions{Dir: dir, AsyncSnapshots: true})
	if err != nil {
		return 0, dir, err
	}
	var uerr error
	d := t.rec.Time("serve.journal_upsert", parent, func() {
		for i, r := range recs {
			if uerr = j.UpsertPayload(r.ID, r.Model, *r.Day, payloads[i]); uerr != nil {
				return
			}
		}
	})
	snaps := j.WALStats().Snapshots
	snapD := t.rec.Time("serve.snapshot", parent, func() {
		if err := j.Snapshot(); err != nil && uerr == nil {
			uerr = err
		}
	})
	pruned := j.PrunedSegments()
	if err := j.Close(); err != nil && uerr == nil {
		uerr = err
	}
	ns := perRec(d, len(recs))
	t.o.set("serve.journal_upsert_ns_per_rec", "ns", ns)
	if len(recs) > 0 {
		t.o.set("serve.snapshots_per_mrec", "count", float64(snaps)/float64(len(recs))*1e6)
	}
	t.o.set("serve.snapshot_ms", "ms", ms(snapD))
	if info, err := os.Stat(filepath.Join(dir, wal.SnapshotName)); err == nil {
		t.o.set("serve.snapshot_bytes", "B", float64(info.Size()))
	}
	t.o.set("serve.pruned_segments", "count", float64(pruned))
	return ns, dir, uerr
}

// recovery times boot recovery on two trial-shaped directories: one
// whose snapshot covers everything (the snapshot-load path) and one
// with the whole log and no snapshot (the replay path).
func (t *tracer) recovery(parent int, snapDir, logDir string) error {
	var j *serve.Journal
	var err error
	d := t.rec.Time("serve.recover_snapshot_load", parent, func() {
		j, err = serve.OpenJournal(serve.NewStore(0, 0), serve.JournalOptions{Dir: snapDir, AsyncSnapshots: true})
	})
	if err != nil {
		return err
	}
	if rec := j.Recovery(); rec.SnapshotDrives == 0 {
		t.o.warn("serve.recover_snapshot_load_ms: recovery found no snapshot in the journal directory")
	}
	if err := j.Close(); err != nil {
		return err
	}
	t.o.set("serve.recover_snapshot_load_ms", "ms", ms(d))

	d = t.rec.Time("serve.recover_replay", parent, func() {
		j, err = serve.OpenJournal(serve.NewStore(0, 0), serve.JournalOptions{Dir: logDir, SnapshotEvery: -1})
	})
	if err != nil {
		return err
	}
	replayed := j.Recovery().Replayed
	if err := j.Close(); err != nil {
		return err
	}
	t.o.set("serve.recover_replay_ns_per_rec", "ns", perRec(d, int(replayed)))
	t.o.set("serve.recover_replayed", "count", float64(replayed))
	return nil
}

// newLocalServer assembles the daemon in-process at its defaults on a
// fresh WAL directory.
func (t *tracer) newLocalServer(model, name string) (*serve.Server, error) {
	dir, err := t.env.TempDir("local-" + name)
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{ModelPath: model, WALDir: dir, NodeName: name})
}

// serveLocal runs one in-memory request through h with a discarding
// writer and returns the status.
func serveLocal(h http.Handler, method, path string, body []byte) int {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := newDiscardWriter()
	h.ServeHTTP(w, req)
	return w.code
}

// ingestHandler times the whole ingest handler in-process, request by
// request: every body through Server.Handler().ServeHTTP with an
// in-memory request and a discarding writer. It returns the span, the
// per-record cost and the median per-request time in microseconds.
func (t *tracer) ingestHandler(parent int, model, path string, scheds ...*Schedule) (int, float64, float64, error) {
	srv, err := t.newLocalServer(model, "handler")
	if err != nil {
		return 0, 0, 0, err
	}
	h := srv.Handler()
	span := t.rec.Reserve("serve.ingest_handler", parent, t.rec.Now())
	var perReq []float64
	var n int
	var herr error
	for _, s := range scheds {
		for i, body := range s.Bodies {
			t0 := time.Now()
			code := serveLocal(h, http.MethodPost, path, body)
			perReq = append(perReq, float64(time.Since(t0))/float64(time.Microsecond))
			if code != http.StatusAccepted && herr == nil {
				herr = fmt.Errorf("bench: in-process %s answered %d", path, code)
			}
			n += s.Starts[i+1] - s.Starts[i]
		}
	}
	end := t.rec.Now()
	t.rec.Finish(span, end)
	if err := srv.Close(); err != nil && herr == nil {
		herr = err
	}
	var total float64
	for _, us := range perReq {
		total += us
	}
	ns := 0.0
	if n > 0 {
		ns = total * 1e3 / float64(n)
	}
	t.o.set("serve.ingest_handler_ns_per_rec", "ns", ns)
	return span, ns, Median(perReq), herr
}

// handlerSelf isolates what the ingest handler itself costs — header
// parse, pooled buffers, counters, reply rendering — by running the
// same bodies through a server without a WAL and taking away the frame
// decode and the bare store upsert, both timed alone. It then checks
// that decode, journal upsert and this remainder account for the
// handler as measured at its defaults.
func (t *tracer) handlerSelf(parent int, model string, handlerNS, decodeNS, journalNS float64, scheds ...*Schedule) error {
	srv, err := serve.New(serve.Config{ModelPath: model})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var n int
	var herr error
	d := t.rec.Time("serve.ingest_handler_nowal", parent, func() {
		for _, s := range scheds {
			for _, body := range s.Bodies {
				if code := serveLocal(h, http.MethodPost, "/v1/ingest/bin", body); code != http.StatusAccepted && herr == nil {
					herr = fmt.Errorf("bench: in-process ingest without a WAL answered %d", code)
				}
			}
			n += len(s.Recs)
		}
	})
	if herr != nil {
		return herr
	}
	self := perRec(d, n) - decodeNS - t.o.Metrics["serve.store_upsert_ns_per_rec"].Value
	t.o.set("serve.ingest_handler_self_ns_per_rec", "ns", self)
	if share := (decodeNS + journalNS + self) / handlerNS; share < 0.8 || share > 1.2 {
		t.o.warn("decode (%.0f ns) + journal upsert (%.0f ns) + handler self (%.0f ns) are %.2f of serve.ingest_handler_ns_per_rec (%.0f ns), outside 0.8–1.2",
			decodeNS, journalNS, self, share, handlerNS)
	}
	return nil
}

// ingestLadder runs the ingest path's rungs on one record set: the
// whole handler, then frame decode, journal upsert, the log alone, the
// bare store, and the handler's own remainder. It returns the median
// in-process time per request, the store it filled, and the two
// directories recovery is timed on (a journal ending in a snapshot, a
// log with no snapshot), which the caller removes.
func (t *tracer) ingestLadder(root int, model string, recs []Rec, scheds ...*Schedule) (reqUS float64, store *serve.Store, snapDir, logDir string, err error) {
	payloads, err := payloadsOf(scheds...)
	if err != nil {
		return 0, nil, "", "", err
	}
	hspan, handlerNS, reqUS, err := t.ingestHandler(root, model, "/v1/ingest/bin", scheds...)
	if err != nil {
		return 0, nil, "", "", err
	}
	decodeNS, err := t.frameDecode(hspan, scheds...)
	if err != nil {
		return 0, nil, "", "", err
	}
	journalNS, snapDir, err := t.journalUpsert(hspan, recs, payloads)
	if err != nil {
		return 0, nil, snapDir, "", err
	}
	logDir, err = t.walAppend(hspan, payloads)
	if err != nil {
		return 0, nil, snapDir, logDir, err
	}
	if store, err = t.storeUpsert(hspan, recs); err != nil {
		return 0, nil, snapDir, logDir, err
	}
	err = t.handlerSelf(hspan, model, handlerNS, decodeNS, journalNS, scheds...)
	return reqUS, store, snapDir, logDir, err
}

// localSpans records boundary spans on the single daemon: the server
// assembled in-process behind a span middleware and a loopback
// listener, preloaded (untraced) when preload is given, then sent ops
// back to back on one connection, one client span each.
func (t *tracer) localSpans(ctx context.Context, model string, preload *Schedule, ops []Op) (Tally, error) {
	var tally Tally
	srv, err := t.newLocalServer(model, "spans")
	if err != nil {
		return tally, err
	}
	ts := httptest.NewServer(Middleware(t.rec, "ssdserved.", srv.Handler()))
	conn := NewConn(ts.URL)
	if preload != nil {
		var pre Tally
		pre.Add(ClosedLoop(ctx, conn, binOps(preload), time.Hour))
		t.o.addTally(&pre)
	}
	tally.Add(tracedLoop(ctx, t.rec, conn, ops, traceReplayWindow))
	t.o.addTally(&tally)
	conn.Close()
	ts.Close()
	return tally, srv.Close()
}

// medianOf runs fn reps times and returns the median duration, each run
// one span.
func (t *tracer) medianOf(name string, parent, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(t.rec.Time(name, parent, fn))
	}
	return time.Duration(Median(ds))
}

// forestNodes counts the served forest's nodes from the model file.
func forestNodes(modelPath string) (int, error) {
	data, err := os.ReadFile(modelPath)
	if err != nil {
		return 0, err
	}
	const header = 12 // "SSDP" | lookahead u32 | length u32, as core.Predictor.Encode writes
	if len(data) < header {
		return 0, fmt.Errorf("bench: model file %s is too short", modelPath)
	}
	f := forest.New(forest.DefaultConfig())
	if err := f.UnmarshalBinary(data[header:]); err != nil {
		return 0, err
	}
	flat, err := f.Flatten()
	if err != nil {
		return 0, err
	}
	return flat.NodeCount(), nil
}

// watchlistReps is how many times each watchlist stage is timed; the
// median is reported.
const watchlistReps = 5

// watchlistStages times the stages of a full-fleet watchlist on a
// resident store, each from outside through its public function, and
// then the whole handler in-process.
func (t *tracer) watchlistStages(parent int, model string, pred *core.Predictor, store *serve.Store, preload ...*Schedule) error {
	handler := t.rec.Reserve("serve.watchlist_handler", parent, t.rec.Now())
	t.rec.Finish(handler, t.rec.Now())

	var units []serve.ScoreUnit
	unitsD := t.medianOf("serve.score_units", handler, watchlistReps, func() { units = store.ScoreUnits(0) })
	t.o.set("serve.score_units_ms", "ms", ms(unitsD))

	// Feature rows, in scorer-sized blocks kept for the forest step.
	const block = 256
	var blocks []*dataset.Matrix
	featD := t.medianOf("dataset.feature_rows", handler, watchlistReps, func() {
		blocks = blocks[:0]
		for lo := 0; lo < len(units); lo += block {
			m := &dataset.Matrix{}
			for i := lo; i < min(lo+block, len(units)); i++ {
				u := &units[i]
				var prev *trace.DayRecord
				if u.HasPrev {
					prev = &u.Prev
				}
				m.AppendFeatureRow(&u.Last, prev)
			}
			blocks = append(blocks, m)
		}
	})
	t.o.set("dataset.feature_row_ns", "ns", perRec(featD, len(units)))

	out := make([]float64, block)
	forestD := t.medianOf("forest.score_rows", handler, watchlistReps, func() {
		for _, m := range blocks {
			pred.ScoreMatrix(m, out[:m.Len()])
		}
	})
	t.o.set("forest.score_rows_ns_per_row", "ns", perRec(forestD, len(units)))
	nodes, err := forestNodes(model)
	if err != nil {
		return err
	}
	t.o.set("forest.nodes", "count", float64(nodes))

	var scored []serve.Scored
	many, one := serve.NewScorer(nproc()), serve.NewScorer(1)
	scoreD := t.medianOf("serve.scorer_score", handler, watchlistReps, func() { scored = many.Score(pred, units) })
	oneD := t.medianOf("serve.scorer_score_1worker", handler, watchlistReps, func() { one.Score(pred, units) })
	t.o.set("serve.scorer_score_ms", "ms", ms(scoreD))
	if scoreD > 0 {
		t.o.set("serve.scorer_speedup", "ratio", float64(oneD)/float64(scoreD))
	}

	ranked := make([]serve.Scored, len(scored))
	rankD := t.medianOf("serve.rank", handler, watchlistReps, func() {
		copy(ranked, scored)
		serve.Rank(ranked, 0.9, 50)
	})
	copyD := t.medianOf("bench.copy_scored", handler, watchlistReps, func() { copy(ranked, scored) })
	rankD -= copyD
	t.o.set("serve.rank_ms", "ms", ms(rankD))

	// The whole handler, on a server that ingested the same records.
	srv, err := t.newLocalServer(model, "watchlist")
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, s := range preload {
		for _, body := range s.Bodies {
			if code := serveLocal(h, http.MethodPost, "/v1/ingest/bin", body); code != http.StatusAccepted {
				return fmt.Errorf("bench: in-process preload answered %d", code)
			}
		}
	}
	var code int
	handlerD := t.medianOf("serve.watchlist_handler_run", handler, watchlistReps, func() {
		code = serveLocal(h, http.MethodGet, "/v1/watchlist", nil)
	})
	if err := srv.Close(); err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("bench: in-process watchlist answered %d", code)
	}
	stages := unitsD + scoreD + rankD
	t.o.set("serve.watchlist_handler_ms", "ms", ms(handlerD))
	t.o.set("serve.watchlist_render_ms", "ms", ms(handlerD-stages))
	coverage := float64(stages) / float64(handlerD)
	t.o.set("serve.watchlist_stage_coverage", "ratio", coverage)
	if coverage < 0.8 || coverage > 1.1 {
		t.o.warn("serve.watchlist_stage_coverage %.2f is outside 0.8–1.1: the stages timed from outside do not add up to the handler", coverage)
	}
	return nil
}

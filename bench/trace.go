package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"ssdfail/internal/cluster"
	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

// The traced pass of each workload. Everything here runs after the
// workload's one plain trial, from the benchmark's own files only:
// boundary spans from replaying part of the same schedule against
// in-process assemblies with a middleware around every Handler(), and
// the layer ladder. End-to-end metrics never come from here.

// traceReplayWindow bounds each boundary-span replay.
const traceReplayWindow = 2 * time.Second

// tracedLoop sends ops back to back on c, one client span per request,
// tagging each request with its span so the server side links exactly.
func tracedLoop(ctx context.Context, rec *Recorder, c *Conn, ops []Op, window time.Duration) []OpResult {
	var cur int
	c.SpanTag = func() string { return strconv.Itoa(cur) }
	defer func() { c.SpanTag = nil }()
	out := make([]OpResult, 0, len(ops))
	start := time.Now()
	for i := range ops {
		if time.Since(start) >= window || ctx.Err() != nil {
			break
		}
		begin := rec.Now()
		cur = rec.ReserveRequest("client."+ops[i].Kind.String(), begin)
		res := c.Do(ctx, &ops[i])
		end := rec.Now()
		rec.Finish(cur, end)
		res.LatMS = ms(end - begin)
		out = append(out, res)
	}
	return out
}

// overheadShare is how much slower the traced client median is than the
// plain one, as a share of the plain one. plain is in send order; only
// as many of its first operations as the traced replay completed are
// compared, so both medians cover the same part of the schedule.
func overheadShare(traced, plain Latencies) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	plainP50 := plain[:min(len(plain), len(traced))].Summarize(50).P50
	return (traced.Summarize(50).P50 - plainP50) / plainP50
}

// clientShare is the benchmark's own share of the CPU the window used.
func clientShare(t serveTrial) float64 {
	if t.clientS+t.cpuS == 0 {
		return 0
	}
	return t.clientS / (t.clientS + t.cpuS)
}

// selfP50 returns the median self time, in milliseconds, of the spans
// with the given name.
func selfP50(spans []Span, self map[int]time.Duration, name string) float64 {
	var xs []float64
	for i := range spans {
		if spans[i].Name == name {
			xs = append(xs, ms(self[spans[i].ID]))
		}
	}
	return Median(xs)
}

func traceIngestDirect(ctx context.Context, env *Env, cfg RunConfig, o *Outcome, in *Inputs, sched *Schedule, plain ingestTrial, plainLat Latencies) error {
	t := newTracer(o, env)
	o.set("serve.wal_fsyncs", "count", plain.fsyncs)
	o.set("serve.snapshots", "count", plain.snaps)
	o.set("serve.sheds", "count", plain.shed)
	o.set("bench.client_cpu_share", "ratio", clientShare(plain.serveTrial))
	plainP50 := o.Metrics["op_p50_ms"].Value

	root := t.rec.Reserve("ladder.ingest_direct", 0, t.rec.Now())
	reqUS, _, snapDir, logDir, err := t.ingestLadder(root, in.ModelPath, sched.Recs, sched)
	if err == nil {
		err = t.recovery(root, snapDir, logDir)
	}
	os.RemoveAll(snapDir)
	os.RemoveAll(logDir)
	if err != nil {
		return err
	}
	o.set("serve.http_overhead_us_per_req", "us", plainP50*1e3-reqUS)
	t.rec.Finish(root, t.rec.Now())

	// Boundary spans: the same schedule against the daemon assembled
	// in-process, over loopback HTTP, with a span around its handler.
	tally, err := t.localSpans(ctx, in.ModelPath, nil, binOps(sched))
	if err != nil {
		return err
	}
	o.set("bench.trace_overhead_share", "ratio", overheadShare(tally.Lat[OpIngestBin], plainLat))
	return t.finish(cfg, in)
}

func traceFleetScan(ctx context.Context, env *Env, cfg RunConfig, o *Outcome, si *scanInputs, plain scanTrial, plainLat Latencies) error {
	t := newTracer(o, env)
	o.set("bench.client_cpu_share", "ratio", clientShare(plain.serveTrial))

	root := t.rec.Reserve("ladder.fleet_scan", 0, t.rec.Now())
	store, err := t.storeUpsert(root, si.preload.Recs)
	if err != nil {
		return err
	}
	if err := t.watchlistStages(root, si.in.ModelPath, si.pred, store, si.preload); err != nil {
		return err
	}
	// The trickle's path: the JSON handler, and its decode alone.
	hspan, _, _, err := t.ingestHandler(root, si.in.ModelPath, "/v1/ingest/batch", si.trickle)
	if err != nil {
		return err
	}
	if err := t.jsonDecode(hspan, si.trickle); err != nil {
		return err
	}
	t.rec.Finish(root, t.rec.Now())

	ops := make([]Op, 20)
	for i := range ops {
		ops[i] = Op{Kind: OpWatchlist}
	}
	tally, err := t.localSpans(ctx, si.in.ModelPath, si.preload, ops)
	if err != nil {
		return err
	}
	o.set("bench.trace_overhead_share", "ratio", overheadShare(tally.Lat[OpWatchlist], plainLat))
	return t.finish(cfg, si.in)
}

// localCluster is the cluster_mixed topology assembled in-process, each
// handler behind a span middleware and its own loopback listener.
type localCluster struct {
	n1, n2, f2          *serve.Server
	tsN1, tsN2, tsF2    *httptest.Server
	router              *httptest.Server
	stopRouter, stopFol context.CancelFunc
	folDone             chan struct{}
}

func (t *tracer) startLocalCluster(ctx context.Context, model string) (*localCluster, error) {
	lc := &localCluster{}
	var err error
	node := func(name string) (*serve.Server, *httptest.Server, error) {
		srv, err := t.newLocalServer(model, name)
		if err != nil {
			return nil, nil, err
		}
		return srv, httptest.NewServer(Middleware(t.rec, name+".", srv.Handler())), nil
	}
	if lc.n1, lc.tsN1, err = node("n1"); err != nil {
		return nil, err
	}
	if lc.n2, lc.tsN2, err = node("n2"); err != nil {
		return nil, err
	}
	if lc.f2, lc.tsF2, err = node("f2"); err != nil {
		return nil, err
	}
	folCtx, stopFol := context.WithCancel(ctx)
	lc.stopFol = stopFol
	lc.folDone = make(chan struct{})
	fol := &cluster.Follower{Upstream: lc.tsN2.URL, Apply: lc.f2.ApplyReplicated}
	go func() {
		defer close(lc.folDone)
		_ = fol.Run(folCtx) // returns only the context's error, on stop
	}()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []cluster.Node{
		{Name: "n1", URL: lc.tsN1.URL},
		{Name: "n2", URL: lc.tsN2.URL, FollowerName: "f2", FollowerURL: lc.tsF2.URL},
	}})
	if err != nil {
		lc.close()
		return nil, err
	}
	rtCtx, stopRouter := context.WithCancel(ctx)
	lc.stopRouter = stopRouter
	rt.Start(rtCtx)
	lc.router = httptest.NewServer(Middleware(t.rec, "router.", rt.Handler()))
	return lc, nil
}

// stopFollower ends f2's background replication and waits for it.
func (lc *localCluster) stopFollower() {
	if lc.stopFol != nil {
		lc.stopFol()
		<-lc.folDone
		lc.stopFol = nil
	}
}

func (lc *localCluster) close() error {
	lc.stopFollower()
	if lc.stopRouter != nil {
		lc.stopRouter()
	}
	var first error
	for _, ts := range []*httptest.Server{lc.router, lc.tsN1, lc.tsN2, lc.tsF2} {
		if ts != nil {
			ts.Close()
		}
	}
	for _, srv := range []*serve.Server{lc.n1, lc.n2, lc.f2} {
		if srv != nil {
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func traceClusterMixed(ctx context.Context, env *Env, cfg RunConfig, o *Outcome, ci *clusterInputs, window time.Duration, plain clusterTrial) error {
	t := newTracer(o, env)
	o.set("bench.client_cpu_share", "ratio", clientShare(plain.serveTrial))

	// Boundary spans first: one connection, both connections' schedules
	// merged in due order, sent back to back.
	lc, err := t.startLocalCluster(ctx, ci.in.ModelPath)
	if err != nil {
		return err
	}
	defer lc.close()
	conn := NewConn(lc.router.URL)
	defer conn.Close()
	var pre, tally Tally
	pre.Add(ClosedLoop(ctx, conn, binOps(ci.preload), time.Hour))
	o.addTally(&pre)
	var ops []Op
	for c := 0; c < clusterConns; c++ {
		part, err := ci.clusterOps(cfg.Seed, c, window)
		if err != nil {
			return err
		}
		ops = append(ops, part...)
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].Due < ops[b].Due })
	tally.Add(tracedLoop(ctx, t.rec, conn, ops, traceReplayWindow))
	o.addTally(&tally)
	o.set("bench.trace_overhead_share", "ratio", overheadShare(tally.Lat[OpIngestBin], plain.service))

	spans := t.rec.Spans()
	routes := []string{"ingest_bin", "drive", "watchlist"}
	parents, children := make(map[string]bool), make(map[string]bool)
	for _, r := range routes {
		parents["router."+r] = true
		for _, n := range []string{"n1.", "n2.", "f2."} {
			children[n+r] = true
		}
	}
	AdoptByContainment(spans, parents, children)
	self := SelfTimes(spans)
	o.set("cluster.router_ingest_self_ms_p50", "ms", selfP50(spans, self, "router.ingest_bin"))
	o.set("cluster.router_read_self_ms_p50", "ms", selfP50(spans, self, "router.drive"))
	o.set("cluster.router_watchlist_self_ms_p50", "ms", selfP50(spans, self, "router.watchlist"))
	var batches, legs int
	for i := range spans {
		switch s := &spans[i]; {
		case s.Name == "router.ingest_bin":
			batches++
		case s.Parent != 0 && (s.Name == "n1.ingest_bin" || s.Name == "n2.ingest_bin"):
			legs++
		}
	}
	if batches > 0 {
		o.set("cluster.legs_per_batch", "count", float64(legs)/float64(batches))
	}

	// Follower apply: a fresh follower pulls everything n2 now holds,
	// one PullOnce at a time, with f2's background replication stopped.
	lc.stopFollower()
	f3, err := t.newLocalServer(ci.in.ModelPath, "f3")
	if err != nil {
		return err
	}
	fol := &cluster.Follower{Upstream: lc.tsN2.URL, Apply: f3.ApplyReplicated}
	var perr error
	d := t.rec.Time("cluster.follower_apply", 0, func() {
		for {
			progressed, err := fol.PullOnce(ctx)
			if err != nil {
				perr = err
				return
			}
			if !progressed {
				return
			}
		}
	})
	st := fol.Stats()
	if err := f3.Close(); err != nil && perr == nil {
		perr = err
	}
	if perr != nil {
		return perr
	}
	o.set("cluster.follower_apply_ns_per_rec", "ns", perRec(d, int(st.Applied)))
	o.set("cluster.follower_pulls", "count", float64(st.Pulls))

	// Ring lookup, and the ingest ladder on the records the window sends.
	root := t.rec.Reserve("ladder.cluster_mixed", 0, t.rec.Now())
	ring, err := cluster.NewRing([]string{"n1", "n2"}, 0)
	if err != nil {
		return err
	}
	ids := ci.drives
	const ringReps = 20
	var sink int
	ringD := t.rec.Time("cluster.ring_owner", root, func() {
		for rep := 0; rep < ringReps; rep++ {
			for _, id := range ids {
				sink += len(ring.Owner(id))
			}
		}
	})
	if sink == 0 {
		return fmt.Errorf("bench: ring lookups returned no owner")
	}
	o.set("cluster.ring_owner_ns", "ns", perRec(ringD, ringReps*len(ids)))
	// The ingest ladder on the records the window sends. Taking the two
	// streams whole, one after the other, keeps every drive's reports in
	// day order, which is all the store asks.
	streams := ci.streams[:]
	var recs []Rec
	for _, s := range streams {
		recs = append(recs, s.Recs...)
	}
	_, store, snapDir, logDir, err := t.ingestLadder(root, ci.in.ModelPath, recs, streams...)
	os.RemoveAll(snapDir)
	os.RemoveAll(logDir)
	if err != nil {
		return err
	}
	pred, err := loadPredictor(ci.in.ModelPath)
	if err != nil {
		return err
	}
	if err := t.watchlistStages(root, ci.in.ModelPath, pred, store, ci.preload); err != nil {
		return err
	}
	t.rec.Finish(root, t.rec.Now())
	if err := lc.close(); err != nil {
		return err
	}
	return t.finish(cfg, ci.in)
}

// timedClassifier decorates one task's classifier so that Fit and the
// interval from its first Score call to its last are timed from
// outside. One task uses it from one goroutine, so it needs no lock.
type timedClassifier struct {
	ml.Classifier
	label       string
	created     time.Time
	fitS        float64
	first, last time.Time
	calls       int
}

// scoreClockStride is how often Score reads the clock: ml.ScoreBatch
// calls it once per test row, and a clock read per row would cost about
// as much as the cheapest classifiers' Score itself. The interval's end
// is therefore early by at most this many rows.
const scoreClockStride = 64

func (c *timedClassifier) Fit(m *dataset.Matrix) error {
	t0 := time.Now()
	err := c.Classifier.Fit(m)
	c.fitS = time.Since(t0).Seconds()
	return err
}

func (c *timedClassifier) Score(x []float64) float64 {
	if c.calls%scoreClockStride == 0 {
		c.last = time.Now()
		if c.calls == 0 {
			c.first = c.last
		}
	}
	c.calls++
	return c.Classifier.Score(x)
}

// classifierLog collects every decorator a traced grid run creates.
type classifierLog struct {
	mu  sync.Mutex
	all []*timedClassifier
}

// wrap decorates every classifier constructor of the spec.
func (l *classifierLog) wrap(spec *expgrid.Spec) {
	specs := append([]expgrid.ClassifierSpec(nil), spec.Classifiers...)
	for i := range specs {
		label, inner := specs[i].Label, specs[i].New
		specs[i].New = func(seed uint64) ml.Classifier {
			c := &timedClassifier{Classifier: inner(seed), label: label, created: time.Now()}
			l.mu.Lock()
			l.all = append(l.all, c)
			l.mu.Unlock()
			return c
		}
	}
	spec.Classifiers = specs
	spec.KeepScores = true
}

// gridLabels maps the grid's classifier labels to metric infixes.
var gridLabels = map[string]string{
	"Logistic Reg.":  "logreg",
	"k-NN":           "knn",
	"SVM":            "svm",
	"Neural Network": "neuralnet",
	"Decision Tree":  "tree",
	"Random Forest":  "forest",
}

func traceTrainGrid(cfg RunConfig, env *Env, o *Outcome, plain gridTrial, table []byte) error {
	t := newTracer(o, env)
	var log classifierLog
	var traced gridTrial
	var err error
	t.rec.Time("expgrid.run", 0, func() { traced, err = runGrid(cfg.Seed, log.wrap) })
	if err != nil {
		return err
	}
	// The decorated run must produce the plain run's table to the byte.
	checkGrid(o, traced.res, table)

	fitS, scoreS := make(map[string]float64), make(map[string]float64)
	var taskSum float64
	for _, c := range log.all {
		fitS[c.label] += c.fitS
		if c.calls > 0 {
			scoreS[c.label] += c.last.Sub(c.first).Seconds()
			taskSum += c.last.Sub(c.created).Seconds()
		}
	}
	for label, infix := range gridLabels {
		o.set("ml."+infix+".fit_s", "s", fitS[label])
		o.set("ml."+infix+".score_s", "s", scoreS[label])
	}
	st := traced.res.Stats
	o.set("expgrid.cache_hit_rate", "ratio", st.CacheHitRate)
	o.set("expgrid.cache_misses", "count", float64(st.CacheMisses))
	o.set("expgrid.peak_matrix_bytes", "B", float64(st.PeakMatrixBytes))
	o.set("expgrid.task_s_sum", "s", taskSum)
	o.set("expgrid.parallel_efficiency", "ratio", taskSum/(float64(st.Workers)*traced.wallS))

	var aucS float64
	for i := range traced.res.Tasks {
		task := &traced.res.Tasks[i]
		aucS += t.rec.Time("eval.auc", 0, func() { eval.AUC(task.Scores, task.Y) }).Seconds()
	}
	o.set("eval.auc_s", "s", aucS)

	// Matrix build, as a cache miss pays it: one extraction per
	// lookahead with the grid's own options.
	var extractS float64
	var rows int
	for _, n := range gridLookaheads {
		extractS += t.rec.Time("dataset.extract", 0, func() {
			m := dataset.Extract(traced.ctx.Fleet, traced.ctx.An, dataset.Options{
				Lookahead:          n,
				NegativeSampleProb: gridTestNegProb,
				Seed:               subSeed(cfg.Seed, "grid/extract"),
				AgeMax:             -1,
			})
			rows += m.Len()
		}).Seconds()
	}
	o.set("dataset.extract_s", "s", extractS)
	o.set("dataset.rows", "count", float64(rows))

	gc := gridConfig()
	fc := fleetsim.DefaultConfig(gc.Seed, gc.DrivesPerModel)
	fc.Workers = gc.Workers
	var fleet *trace.Fleet
	genD := t.rec.Time("fleetsim.generate", 0, func() { fleet, _, err = fleetsim.Generate(fc) })
	if err != nil {
		return err
	}
	analyzeD := t.rec.Time("failure.analyze", 0, func() { failure.Analyze(fleet) })
	o.set("fleetsim.generate_s", "s", genD.Seconds())
	o.set("failure.analyze_s", "s", analyzeD.Seconds())

	o.set("bench.client_cpu_share", "ratio", 1)
	o.set("bench.trace_overhead_share", "ratio", (traced.wallS-plain.wallS)/plain.wallS)
	return t.finish(cfg, nil)
}

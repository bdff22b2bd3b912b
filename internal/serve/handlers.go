package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/faultfs"
	"ssdfail/internal/metrics"
	"ssdfail/internal/remedy"
	"ssdfail/internal/trace"
)

// Config configures a Server.
type Config struct {
	// ModelPath is the predictor file (core.Predictor.Save format) the
	// registry loads at startup and on POST /v1/model/reload.
	ModelPath string
	// Shards is the drive-state store's shard count; 0 uses
	// DefaultShards.
	Shards int
	// Workers is the batch-scoring worker count (0 = all CPUs).
	Workers int
	// MaxBodyBytes caps ingest request bodies; 0 means 8 MiB.
	MaxBodyBytes int64
	// WatchlistThreshold is the default minimum score for /v1/watchlist.
	// The default 0.9 is the paper's recommended low-false-positive-rate
	// operating point (Figure 15): act on few drives, almost all of
	// which really are about to fail.
	WatchlistThreshold float64
	// WatchlistK is the default maximum watchlist length (0 means 50).
	WatchlistK int

	// WALDir enables the durability layer: accepted ingest records are
	// written to a write-ahead log there, periodic snapshots bound
	// replay time, and boot recovers snapshot+tail. Empty disables
	// durability (in-memory only, as before).
	WALDir string
	// WALSegmentBytes, WALSyncEvery, WALSyncInterval, and SnapshotEvery
	// tune the journal; zero values use the wal/journal defaults.
	WALSegmentBytes int64
	WALSyncEvery    int
	WALSyncInterval time.Duration
	SnapshotEvery   int
	// WALFS overrides the journal's filesystem (fault-injection tests).
	WALFS faultfs.FS
	// SyncSnapshots makes automatic snapshots run inline on the ingest
	// path instead of a background goroutine (deterministic tests).
	SyncSnapshots bool

	// MaxInflightIngest bounds concurrently served ingest requests;
	// excess requests are shed with 429 + Retry-After instead of piling
	// onto a WAL or store that has fallen behind. 0 means 256.
	MaxInflightIngest int
	// MaxInflightScores bounds concurrent full-fleet scoring passes
	// (the watchlist endpoint); excess requests are shed with 429.
	// 0 means 4.
	MaxInflightScores int
	// RequestTimeout is the per-request deadline; handlers abort work
	// and answer 503 once it expires. 0 means 30s; negative disables.
	RequestTimeout time.Duration

	// ModelLoadAttempts retries the startup model load with exponential
	// backoff plus jitter — bootstrap environments often race the
	// trainer writing the model file. 0 or 1 means a single attempt.
	ModelLoadAttempts int

	// RemedyPolicy enables the remediation control plane: a policy
	// engine that walks fleet scores through cordon/drain/swap decisions
	// against a spare pool, exposed under /v1/remedy/*. Nil leaves
	// remediation disabled (the endpoints answer 409, like /v1/snapshot
	// without a WAL).
	RemedyPolicy *remedy.Policy
	// RemedySpares stocks the spare pool at startup.
	RemedySpares int

	// NodeName identifies this daemon in a cluster; it is reported by
	// GET /v1/health so routers and operators can tell nodes apart.
	// Empty is fine for a standalone daemon.
	NodeName string

	// Clock overrides the server's time source (request-duration and
	// scoring-latency observations, uptime and model-age gauges, model
	// load timestamps). Nil means time.Now. Tests inject a deterministic
	// clock so latency metrics are exact rather than merely plausible.
	Clock func() time.Time
}

const (
	defaultMaxBody        = 8 << 20
	defaultInflightIngest = 256
	defaultInflightScores = 4
	defaultRequestTimeout = 30 * time.Second
)

// Server wires the store, registry, scorer, and metrics into an HTTP
// handler. Create with New, mount via Handler.
type Server struct {
	cfg      Config
	store    *Store
	journal  *Journal // nil when WALDir is empty
	registry *Registry
	scorer   *Scorer
	metrics  *metrics.Metrics
	now      func() time.Time
	start    time.Time

	remedy *remedyPlane // nil when cfg.RemedyPolicy is nil

	ingestSem chan struct{}
	scoreSem  chan struct{}
	pace      passPacer // spaces the fleet passes scoreSem admits

	binStates sync.Pool // *binState scratch for /v1/ingest/bin

	// Parked GET /v1/wal/stream requests (cluster.go).
	tail          tailSignal
	parkTimer     func(time.Duration) (fire <-chan time.Time, stop func()) // time.NewTimer; a test's fake fires on demand
	streamParking atomic.Int64

	reqs           *metrics.CounterVec
	reqDur         *metrics.Histogram
	ingested       *metrics.Counter
	ingestRejected *metrics.CounterVec
	scoredDrives   *metrics.Counter
	memoHits       *metrics.Counter
	memoShards     *metrics.Counter
	scoreDur       *metrics.Histogram
	loads          *metrics.Counter
	reloads        *metrics.Counter
	reloadFailures *metrics.Counter
	sheds          *metrics.CounterVec
	snapshotReqs   *metrics.Counter
	replicaApplied *metrics.Counter
	replicaSkipped *metrics.Counter
	walStreamed    *metrics.Counter
	streamWakeups  *metrics.Counter
}

// New builds a server, loads the model from cfg.ModelPath (with
// backoff retries when configured), and — when cfg.WALDir is set —
// recovers durable fleet state from the snapshot and WAL tail. The
// daemon refuses to start without a servable model; later reload
// failures keep the last good model serving.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	if cfg.WatchlistThreshold == 0 {
		cfg.WatchlistThreshold = 0.9
	}
	if cfg.WatchlistK == 0 {
		cfg.WatchlistK = 50
	}
	if cfg.MaxInflightIngest <= 0 {
		cfg.MaxInflightIngest = defaultInflightIngest
	}
	if cfg.MaxInflightScores <= 0 {
		cfg.MaxInflightScores = defaultInflightScores
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		cfg:       cfg,
		store:     NewStore(cfg.Shards, 0),
		registry:  NewRegistry(cfg.ModelPath, clock),
		scorer:    NewScorer(cfg.Workers),
		metrics:   metrics.NewMetrics(),
		now:       clock,
		start:     clock(),
		ingestSem: make(chan struct{}, cfg.MaxInflightIngest),
		scoreSem:  make(chan struct{}, cfg.MaxInflightScores),
		binStates: binStatePool(),
		parkTimer: func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTimer(d)
			return t.C, func() { t.Stop() }
		},
	}
	if err := s.loadModelWithRetry(); err != nil {
		return nil, err
	}
	if cfg.WALDir != "" {
		j, err := OpenJournal(s.store, JournalOptions{
			Dir:            cfg.WALDir,
			FS:             cfg.WALFS,
			SegmentBytes:   cfg.WALSegmentBytes,
			SyncEvery:      cfg.WALSyncEvery,
			SyncInterval:   cfg.WALSyncInterval,
			SnapshotEvery:  cfg.SnapshotEvery,
			AsyncSnapshots: !cfg.SyncSnapshots,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: recovering durable state: %w", err)
		}
		s.journal = j
	}
	m := s.metrics
	s.reqs = m.NewCounterVec("ssdserved_http_requests_total",
		"HTTP requests served, by handler and status code.", "handler", "code")
	s.reqDur = m.NewHistogram("ssdserved_http_request_duration_seconds",
		"HTTP request latency.", metrics.DurationBuckets)
	s.ingested = m.NewCounter("ssdserved_ingest_records_total",
		"Drive-day records accepted into the store.")
	s.ingestRejected = m.NewCounterVec("ssdserved_ingest_rejected_total",
		"Drive-day records rejected at ingest, by reason.", "reason")
	s.scoredDrives = m.NewCounter("ssdserved_scored_drives_total",
		"Drives run through the model by fleet scoring passes: their score slot was stale "+
			"(new report, restored, or stamped by another model version).")
	s.memoHits = m.NewCounter("ssdserved_score_memo_hits_total",
		"Drives a fleet scoring pass answered from the resident score column without re-scoring.")
	s.memoShards = m.NewCounter("ssdserved_score_memo_shards_total",
		"Store shards a fleet scoring pass answered from the memo of their last walk, without "+
			"visiting a slot: the shard had not changed since a pass with the same model version, "+
			"since and threshold walked it and found nothing stale.")
	s.scoreDur = m.NewHistogram("ssdserved_scoring_duration_seconds",
		"Latency of fleet scoring passes (column sweep plus re-scoring of stale slots).", metrics.DurationBuckets)
	s.loads = m.NewCounter("ssdserved_model_loads_total",
		"Successful model loads, including the startup load.")
	s.reloads = m.NewCounter("ssdserved_model_reloads_total",
		"Successful reloads via POST /v1/model/reload; excludes the startup load, "+
			"so this counts exactly the hot swaps (e.g. trainer promotions).")
	s.reloadFailures = m.NewCounter("ssdserved_model_reload_failures_total",
		"Model reloads that failed and kept the previous model.")
	s.sheds = m.NewCounterVec("ssdserved_load_shed_total",
		"Requests shed with 429 because the handler's concurrency bound was full.",
		"handler")
	s.replicaApplied = m.NewCounter("ssdserved_replica_applied_total",
		"Records applied from a primary's WAL stream (replication pull).")
	s.replicaSkipped = m.NewCounter("ssdserved_replica_skipped_total",
		"Replicated records skipped as already present (benign re-pull overlap).")
	s.walStreamed = m.NewCounter("ssdserved_wal_stream_bytes_total",
		"Bytes served to followers over the WAL catch-up endpoint.")
	m.NewGaugeFunc("ssdserved_wal_stream_parked",
		"WAL catch-up requests parked right now, waiting for records past their position.",
		func() float64 { return float64(s.streamParking.Load()) })
	s.streamWakeups = m.NewCounter("ssdserved_wal_stream_wakeups_total",
		"Parked WAL catch-up requests woken by a finished ingest request or by shutdown, "+
			"rather than by the wait cap or the client going away.")
	s.loads.Inc() // the startup load above; reloads stays 0 until a hot swap
	if j := s.journal; j != nil {
		s.snapshotReqs = m.NewCounter("ssdserved_snapshot_requests_total",
			"Snapshots requested via POST /v1/snapshot.")
		m.NewCounterFunc("ssdserved_wal_appends_total",
			"Records appended to the write-ahead log.",
			func() uint64 { return j.WALStats().Appends })
		m.NewCounterFunc("ssdserved_wal_fsyncs_total",
			"WAL fsyncs issued by the sync policy, rotations, and Sync calls.",
			func() uint64 { return j.WALStats().Fsyncs })
		m.NewCounterFunc("ssdserved_wal_rotations_total",
			"WAL segment rotations.",
			func() uint64 { return j.WALStats().Rotations })
		m.NewCounterFunc("ssdserved_wal_snapshots_total",
			"Store snapshots written.",
			func() uint64 { return j.WALStats().Snapshots })
		m.NewCounterFunc("ssdserved_wal_snapshot_bytes_total",
			"Bytes of store snapshot written.",
			func() uint64 { return j.WALStats().SnapshotBytes })
		m.NewFloatCounterFunc("ssdserved_wal_snapshot_seconds_total",
			"Seconds spent writing store snapshots.",
			func() float64 { return j.WALStats().SnapshotTime.Seconds() })
		m.NewCounterFunc("ssdserved_wal_snapshot_failures_total",
			"Store snapshots that failed to write.",
			func() uint64 { return j.SnapshotFailures() })
		m.NewCounterFunc("ssdserved_wal_pruned_segments_total",
			"WAL segments removed because a snapshot covered them.",
			func() uint64 { return j.PrunedSegments() })
		rec := j.Recovery()
		m.NewCounterFunc("ssdserved_wal_recovery_truncations_total",
			"Torn or corrupt WAL tails truncated during boot recovery.",
			func() uint64 { return uint64(rec.Truncations) })
		m.NewCounterFunc("ssdserved_wal_replayed_records_total",
			"WAL records replayed into the store during boot recovery.",
			func() uint64 { return rec.Replayed })
		m.NewCounterFunc("ssdserved_wal_replay_duplicates_total",
			"Replayed WAL records already present via the snapshot.",
			func() uint64 { return rec.Duplicates })
		m.NewGaugeFunc("ssdserved_wal_last_lsn",
			"Most recently appended WAL log sequence number.",
			func() float64 { return float64(j.LastLSN()) })
		m.NewGaugeFunc("ssdserved_wal_tail_records",
			"WAL records past the current snapshot: what a restart would replay now. "+
				"An automatic snapshot starts when this reaches max(-snapshot-every, ssdserved_fleet_records).",
			func() float64 { return float64(j.Tail()) })
	}
	m.NewGaugeFunc("ssdserved_fleet_drives",
		"Drives currently tracked in the state store.",
		func() float64 { return float64(s.store.Len()) })
	m.NewGaugeFunc("ssdserved_fleet_records",
		"Daily reports currently retained in the state store.",
		func() float64 { return float64(s.store.Records()) })
	m.NewGaugeFunc("ssdserved_model_version",
		"Reload generation of the serving model (1 = startup load).",
		func() float64 {
			_, info, ok := s.registry.Current()
			if !ok {
				return 0
			}
			return float64(info.Version)
		})
	m.NewGaugeFunc("ssdserved_model_age_seconds",
		"Seconds since the serving model was loaded.",
		func() float64 {
			_, info, ok := s.registry.Current()
			if !ok {
				return 0
			}
			return s.now().Sub(info.LoadedAt).Seconds()
		})
	m.NewGaugeFunc("ssdserved_model_loaded_timestamp_seconds",
		"Unix time the serving model was loaded.",
		func() float64 {
			_, info, ok := s.registry.Current()
			if !ok {
				return 0
			}
			return float64(info.LoadedAt.UnixNano()) / 1e9
		})
	m.NewGaugeFunc("ssdserved_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return s.now().Sub(s.start).Seconds() })
	if err := s.initRemedy(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadModelWithRetry loads the startup model, retrying transient
// failures with exponential backoff plus jitter so a bootstrap daemon
// can win its race against the trainer still writing the model file.
// The step starts at 200ms and doubles up to 5s.
func (s *Server) loadModelWithRetry() error {
	const maxDelay = 5 * time.Second
	attempts := s.cfg.ModelLoadAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	delay := 200 * time.Millisecond
	for attempt := 1; ; attempt++ {
		if _, err = s.registry.Load(); err == nil {
			return nil
		}
		if attempt >= attempts {
			return err
		}
		// Full jitter on top of the exponential step spreads retries
		// from daemons restarted in lockstep.
		sleep := delay + rand.N(delay/2+1)
		time.Sleep(sleep)
		delay *= 2
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

// Store exposes the drive-state store (for warm-up loaders and tests).
func (s *Server) Store() *Store { return s.store }

// Recovery reports what boot-time durability recovery reconstructed;
// ok is false when the daemon runs without a WAL.
func (s *Server) Recovery() (RecoveryInfo, bool) {
	if s.journal == nil {
		return RecoveryInfo{}, false
	}
	return s.journal.Recovery(), true
}

// Drain wakes every parked WAL catch-up request and makes later ones
// answer without parking. http.Server.Shutdown waits for handlers but
// does not cancel them, so a daemon registers Drain with
// RegisterOnShutdown; otherwise its exit waits out the parking cap.
func (s *Server) Drain() { s.tail.drain() }

// Close flushes and closes the durability layer. Call after the HTTP
// server has drained so in-flight accepted records reach stable
// storage.
func (s *Server) Close() error {
	s.Drain()
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// Metrics exposes the metrics registry so callers can add their own
// instruments before mounting the handler.
func (s *Server) Metrics() *metrics.Metrics { return s.metrics }

// CounterSnapshot returns the current value of every metrics series,
// keyed by full exposition name (see Metrics.Snapshot). Conformance
// harnesses compare it — or the equivalent parsed /metrics scrape —
// against independently tracked load: accepted + shed + rejected must
// account for every request driven.
func (s *Server) CounterSnapshot() map[string]float64 { return s.metrics.Snapshot() }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h func(http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(pattern, s.instrument(name, h))
	}
	route("POST /v1/ingest", "ingest", s.handleIngest)
	route("POST /v1/ingest/batch", "ingest_batch", s.handleIngestBatch)
	route("POST /v1/ingest/bin", "ingest_bin", s.handleIngestBin)
	route("GET /v1/watchlist", "watchlist", s.handleWatchlist)
	route("GET /v1/drive/{id}", "drive", s.handleDrive)
	route("GET /v1/model", "model", s.handleModel)
	route("POST /v1/model/reload", "model_reload", s.handleModelReload)
	route("POST /v1/snapshot", "snapshot", s.handleSnapshot)
	route("POST /v1/remedy/evaluate", "remedy_evaluate", s.handleRemedyEvaluate)
	route("GET /v1/remedy/status", "remedy_status", s.handleRemedyStatus)
	route("GET /v1/remedy/drives", "remedy_drives", s.handleRemedyDrives)
	route("GET /v1/remedy/log", "remedy_log", s.handleRemedyLog)
	route("POST /v1/remedy/fail", "remedy_fail", s.handleRemedyFail)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /v1/health", "health", s.handleHealth)
	route("GET /v1/wal/stream", "wal_stream", s.handleWALStream)
	route("GET /metrics", "metrics", s.handleMetrics)
	return mux
}

// statusWriter captures the response code for instrumentation, and how
// long the handler sat parked: waiting for work to exist is not service
// time and stays out of the latency histogram.
type statusWriter struct {
	http.ResponseWriter
	code   int
	parked time.Duration
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		begin := s.now()
		h(sw, r)
		s.reqDur.Observe((s.now().Sub(begin) - sw.parked).Seconds())
		s.reqs.With(name, strconv.Itoa(sw.code)).Inc()
	}
}

// releaseIngest returns an ingest request's slot and wakes parked WAL
// catch-up requests: once per request, when everything it appended is
// in the log, not once per record (see DESIGN §14 for the measurement).
func (s *Server) releaseIngest() {
	<-s.ingestSem
	s.tail.wake()
}

// acquire takes a slot from a concurrency bound without blocking. When
// the bound is full — the WAL, store, or scorer has fallen behind — the
// request is shed with 429 and a Retry-After hint instead of queueing
// more work onto the backlog.
func (s *Server) acquire(w http.ResponseWriter, handler string, sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
		s.sheds.With(handler).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded, retry later")
		return false
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeJSON decodes a single JSON value from the (size-capped) body.
// It distinguishes oversized bodies (413) from malformed ones (400) via
// the returned status code.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("malformed JSON: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return http.StatusBadRequest, errors.New("trailing data after JSON value")
	}
	return http.StatusOK, nil
}

// batchError reports one rejected record of a batch.
type batchError struct {
	Index   int
	DriveID uint32
	Error   string
}

// handleIngest takes one record and answers in the single-record
// shapes; handleIngestBatch takes an array and answers like every batch
// endpoint. Both put the JSON decode step in front of the batch loop.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.serveJSONIngest(w, r, "ingest", true)
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	s.serveJSONIngest(w, r, "ingest_batch", false)
}

func (s *Server) serveJSONIngest(w http.ResponseWriter, r *http.Request, handler string, single bool) {
	if !s.acquire(w, handler, s.ingestSem) {
		return
	}
	defer s.releaseIngest()
	st := s.acquireBinState()
	defer s.releaseBinState(st)
	var dst any = &st.json.recs
	if single {
		st.json.recs = make([]IngestRecord, 1)
		dst = &st.json.recs[0]
	}
	if code, err := s.decodeJSON(w, r, dst); err != nil {
		writeError(w, code, err.Error())
		return
	}
	res := s.ingestBatch(r.Context(), len(st.json.recs), &st.json, st)
	switch {
	case !single:
		st.renderBinReply(res)
		writeBatchReply(w, res.code, st)
	case res.accepted == 1:
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": 1})
	case res.topErr != "":
		writeError(w, res.code, res.topErr)
	default:
		writeError(w, res.code, st.errs[0].Error)
	}
}

// jsonRecords is the JSON wires' decode step: ToRecord validates each
// record, and its canonical WAL encoding goes into a pooled buffer, so
// both wires journal the same bytes for the same record.
type jsonRecords struct {
	recs    []IngestRecord
	payload []byte
}

func (j *jsonRecords) decode(i int) (uint32, trace.Model, trace.DayRecord, []byte, error) {
	ir := &j.recs[i]
	model, rec, err := ir.ToRecord()
	if err != nil {
		return ir.DriveID, 0, rec, nil, err
	}
	j.payload = trace.AppendWALRecord(j.payload[:0], ir.DriveID, model, &rec)
	return ir.DriveID, model, rec, j.payload, nil
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	return n, nil
}

// sweep runs one fleet scoring pass with the given model, once the
// pacer admits it, and accounts for it in the scoring metrics. It is the
// only way a handler scores the fleet.
func (s *Server) sweep(pred *core.Predictor, info ModelInfo, sinceDay int32, minScore float64, emit func(Scored)) SweepStats {
	s.pace.wait(s.store.Len())
	begin := s.now()
	stats := s.scorer.Sweep(s.store, pred, info.Version, sinceDay, minScore, emit)
	s.scoreDur.Observe(s.now().Sub(begin).Seconds())
	s.scoredDrives.Add(uint64(stats.Scored))
	s.memoHits.Add(uint64(stats.Hits))
	s.memoShards.Add(uint64(stats.ShardsMemo))
	return stats
}

func (s *Server) handleWatchlist(w http.ResponseWriter, r *http.Request) {
	pred, info, ok := s.registry.Current()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	// A fleet scoring pass walks every shard and may re-score all of it;
	// bounding concurrent passes keeps a scrape storm from starving ingest.
	if !s.acquire(w, "watchlist", s.scoreSem) {
		return
	}
	defer func() { <-s.scoreSem }()
	k, err := queryInt(r, "k", s.cfg.WatchlistK)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	since, err := queryInt(r, "since", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	threshold := s.cfg.WatchlistThreshold
	if v := r.URL.Query().Get("threshold"); v != "" {
		threshold, err = strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad threshold: %v", err))
			return
		}
	}
	top := topK{k: k}
	stats := s.sweep(pred, info, int32(since), threshold, top.offer)
	if r.Context().Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded during scoring")
		return
	}
	ranked := top.ranked()
	type item struct {
		DriveID uint32  `json:"drive_id"`
		Model   string  `json:"model"`
		Score   float64 `json:"score"`
		Day     int32   `json:"day"`
		Age     int32   `json:"age"`
		// Threshold and Margin report the operating point each item was
		// ranked against and how far above it the score sits — the
		// remediation planner consumes margins, and existing clients see
		// only added fields.
		Threshold float64 `json:"threshold"`
		Margin    float64 `json:"margin"`
	}
	items := make([]item, len(ranked))
	for i, sc := range ranked {
		items[i] = item{DriveID: sc.ID, Model: sc.Model.String(),
			Score: sc.Score, Day: sc.Day, Age: sc.Age,
			Threshold: threshold, Margin: sc.Score - threshold}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model_version": info.Version,
		"lookahead":     info.Lookahead,
		"threshold":     threshold,
		"fleet_size":    stats.Fleet(),
		"count":         len(items),
		"items":         items,
	})
}

func (s *Server) handleDrive(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad drive id: %v", err))
		return
	}
	snap, ok := s.store.Get(uint32(id64))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown drive")
		return
	}
	resp := map[string]any{
		"drive_id": snap.ID,
		"model":    snap.Model.String(),
		"days":     snap.Reports,
	}
	n := len(snap.Recent)
	if n > 0 {
		resp["last"] = WireRecord(snap.ID, snap.Model, &snap.Recent[n-1])
	}
	if pred, info, ok := s.registry.Current(); ok && n > 0 {
		var prev *trace.DayRecord
		if n > 1 {
			prev = &snap.Recent[n-2]
		}
		resp["score"] = pred.ScoreRecord(&snap.Recent[n-1], prev)
		resp["model_version"] = info.Version
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	_, info, ok := s.registry.Current()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleModelReload(w http.ResponseWriter, r *http.Request) {
	info, err := s.registry.Load()
	if err != nil {
		s.reloadFailures.Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.loads.Inc()
	s.reloads.Inc()
	writeJSON(w, http.StatusOK, info)
}

// handleSnapshot forces a store snapshot (and prunes covered WAL
// segments) on demand, e.g. before planned maintenance.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusConflict, "durability disabled: daemon runs without a WAL")
		return
	}
	s.snapshotReqs.Inc()
	if err := s.journal.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot_lsn": s.journal.SnapshotLSN(),
		"drives":       s.store.Len(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, info, ok := s.registry.Current()
	resp := map[string]any{
		"status":         "ok",
		"uptime_seconds": s.now().Sub(s.start).Seconds(),
		"drives":         s.store.Len(),
		"model_loaded":   ok,
		"wal":            s.journal != nil,
	}
	if ok {
		resp["model_version"] = info.Version
	}
	s.walHealth(resp)
	writeJSON(w, http.StatusOK, resp)
}

// walHealth adds the journal's position to a health response: where the
// log ends, what the snapshot covers, and the tail between them that a
// restart would replay.
func (s *Server) walHealth(resp map[string]any) {
	if s.journal == nil {
		return
	}
	resp["wal_last_lsn"] = s.journal.LastLSN()
	resp["wal_snapshot_lsn"] = s.journal.SnapshotLSN()
	resp["wal_tail_records"] = s.journal.Tail()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.MetricsContentType)
	//ssdlint:allow droppederr scrape write failed means the client hung up; nothing durable is at stake
	s.metrics.WriteTo(w)
}

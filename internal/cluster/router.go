package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

// Node declares one ring partition's endpoints for the router: the
// primary ssdserved and an optional follower replicating its WAL.
type Node struct {
	Name string
	URL  string
	// FollowerName/FollowerURL declare the failover target (optional).
	FollowerName string
	FollowerURL  string
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Nodes are the ring partitions, in declaration order.
	Nodes []Node
	// Vnodes is the consistent-hash point count per partition
	// (0 = DefaultVnodes).
	Vnodes int
	// DownAfter and UpAfter are the tracker hysteresis (0 = 3 and 2).
	DownAfter int
	UpAfter   int
	// ProbeInterval is the health-probe cadence (0 = 100ms);
	// ProbeTimeout bounds one probe (0 = ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// PerNodeDeadline bounds each scatter-gather leg (0 = 2s). A leg
	// that misses it degrades the response instead of failing it.
	PerNodeDeadline time.Duration
	// HedgeAfter fires a second identical request for read legs still
	// unanswered after this long — the slow-tail hedge (0 = 250ms,
	// negative disables).
	HedgeAfter time.Duration
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// Client overrides the HTTP client (nil = dedicated client).
	Client *http.Client
}

const (
	defaultProbeInterval   = 100 * time.Millisecond
	defaultPerNodeDeadline = 2 * time.Second
	defaultHedgeAfter      = 250 * time.Millisecond
	defaultRouterMaxBody   = 8 << 20
	maxLegRespBytes        = 32 << 20
)

// Router fans client requests out across the ring: single-partition
// requests (ingest, drive lookups) go to the owning partition's active
// endpoint, fleet-wide queries scatter to every partition with a
// per-node deadline and hedged retries, and unreachable partitions
// degrade the response — a `degraded` node list — rather than erroring
// it. All methods are safe for concurrent use.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	client  *http.Client
	metrics *serve.Metrics
	urls    map[string]string // endpoint name -> base URL

	mu      sync.Mutex
	tracker *Tracker
	round   int

	reqs       *serve.CounterVec
	hedges     *serve.Counter
	degraded   *serve.CounterVec
	probes     *serve.CounterVec
	promotions *serve.Counter
}

// NewRouter validates the topology and builds a router. Start must be
// called for health probing and failover to function.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.PerNodeDeadline <= 0 {
		cfg.PerNodeDeadline = defaultPerNodeDeadline
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = defaultHedgeAfter
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultRouterMaxBody
	}
	names := make([]string, 0, len(cfg.Nodes))
	parts := make([]Partition, 0, len(cfg.Nodes))
	urls := make(map[string]string)
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs a name and URL")
		}
		if (n.FollowerName == "") != (n.FollowerURL == "") {
			return nil, fmt.Errorf("cluster: node %s: follower needs both a name and a URL", n.Name)
		}
		names = append(names, n.Name)
		parts = append(parts, Partition{Primary: n.Name, Follower: n.FollowerName})
		urls[n.Name] = strings.TrimSuffix(n.URL, "/")
		if n.FollowerName != "" {
			urls[n.FollowerName] = strings.TrimSuffix(n.FollowerURL, "/")
		}
	}
	ring, err := NewRing(names, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	tracker, err := NewTracker(parts, cfg.DownAfter, cfg.UpAfter, nil)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.PerNodeDeadline + time.Second}
	}
	rt := &Router{
		cfg: cfg, ring: ring, tracker: tracker, client: client,
		metrics: serve.NewMetrics(), urls: urls,
	}
	m := rt.metrics
	rt.reqs = m.NewCounterVec("ssdrouter_http_requests_total",
		"Router HTTP requests served, by handler and status code.", "handler", "code")
	rt.hedges = m.NewCounter("ssdrouter_hedged_requests_total",
		"Second requests fired because a read leg was still unanswered after the hedge delay.")
	rt.degraded = m.NewCounterVec("ssdrouter_degraded_legs_total",
		"Scatter-gather legs that failed or missed their deadline, by endpoint.", "node")
	rt.probes = m.NewCounterVec("ssdrouter_probes_total",
		"Health probes issued, by endpoint and outcome.", "node", "outcome")
	rt.promotions = m.NewCounter("ssdrouter_promotions_total",
		"Partitions failed over to their follower.")
	m.NewGaugeFunc("ssdrouter_partitions",
		"Ring partitions configured.",
		func() float64 { return float64(len(cfg.Nodes)) })
	m.NewGaugeFunc("ssdrouter_endpoints_up",
		"Endpoints currently passing health probes.",
		func() float64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			n := 0
			for _, name := range rt.tracker.Endpoints() {
				if rt.tracker.Up(name) {
					n++
				}
			}
			return float64(n)
		})
	return rt, nil
}

// Start launches the background health prober; it stops when ctx is
// canceled.
func (rt *Router) Start(ctx context.Context) {
	go rt.probeLoop(ctx)
}

func (rt *Router) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rt.probeRound(ctx)
		}
	}
}

// probeRound probes every endpoint concurrently and applies the
// results in the tracker's canonical endpoint order, so the event log
// never depends on network timing within a round.
func (rt *Router) probeRound(ctx context.Context) {
	rt.mu.Lock()
	rt.round++
	round := rt.round
	eps := rt.tracker.Endpoints()
	rt.mu.Unlock()

	results := make([]bool, len(eps))
	var wg sync.WaitGroup
	for i, name := range eps {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			results[i] = rt.probe(ctx, rt.urls[name])
		}(i, name)
	}
	wg.Wait()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, name := range eps {
		outcome := "fail"
		if results[i] {
			outcome = "ok"
		}
		rt.probes.With(name, outcome).Inc()
		for _, ev := range rt.tracker.Observe(round, name, results[i]) {
			if ev.Kind == "promote" {
				rt.promotions.Inc()
			}
		}
	}
}

// probe checks one endpoint: a 200 with status "ready" within the
// probe timeout. A gate answering "starting", a shed, a hung
// connection, and a refused one all count as missed.
func (rt *Router) probe(ctx context.Context, baseURL string) bool {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/health", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	//ssdlint:allow droppederr probe body close; the probe result is already decided
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&health); err != nil {
		return false
	}
	return health.Status == "ready"
}

// target resolves a partition to the endpoint requests should hit.
func (rt *Router) target(partition string) (name, url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	name = rt.tracker.Active(partition)
	return name, rt.urls[name]
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h func(http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(pattern, rt.instrument(name, h))
	}
	route("POST /v1/ingest", "ingest", rt.handleIngest)
	route("POST /v1/ingest/batch", "ingest_batch", rt.handleIngestBatch)
	route("POST /v1/ingest/bin", "ingest_bin", rt.handleIngestBin)
	route("GET /v1/watchlist", "watchlist", rt.handleWatchlist)
	route("GET /v1/drive/{id}", "drive", rt.handleDrive)
	route("GET /v1/model", "model", rt.handleModel)
	route("POST /v1/model/reload", "model_reload", rt.handleBroadcastPOST("/v1/model/reload"))
	route("POST /v1/snapshot", "snapshot", rt.handleBroadcastPOST("/v1/snapshot"))
	route("POST /v1/remedy/evaluate", "remedy_evaluate", rt.handleBroadcastPOST("/v1/remedy/evaluate"))
	route("GET /metrics", "metrics", rt.handleMetrics)
	route("GET /v1/cluster/status", "cluster_status", rt.handleStatus)
	route("GET /healthz", "healthz", rt.handleHealth)
	route("GET /v1/health", "health", rt.handleHealth)
	return mux
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (rt *Router) instrument(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		rt.reqs.With(name, strconv.Itoa(sw.code)).Inc()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//ssdlint:allow droppederr client gone; nothing durable is at stake
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

const (
	contentTypeJSON   = "application/json"
	contentTypeBinary = "application/octet-stream"
)

// do issues one request and reads the full response. A nil error with
// code 0 never happens: transport failures return the error, HTTP
// responses return their code and body.
func (rt *Router) do(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	//ssdlint:allow droppederr leg body close after a full read; the gather already has the bytes
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxLegRespBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// doHedged runs one leg under the per-node deadline. For reads
// (hedge=true) a second identical request fires once the hedge delay
// passes — or immediately when the first attempt fails — and the
// first success wins; the deadline bounds the whole leg either way.
func (rt *Router) doHedged(ctx context.Context, method, url, contentType string, body []byte, hedge bool) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.PerNodeDeadline)
	defer cancel()
	type result struct {
		code int
		body []byte
		err  error
	}
	ch := make(chan result, 2)
	fire := func() {
		code, b, err := rt.do(ctx, method, url, contentType, body)
		ch <- result{code, b, err}
	}
	//ssdlint:allow goroleak request-scoped: rt.do is bounded by the per-node deadline ctx and the buffered channel absorbs the send
	go fire()
	canHedge := hedge && rt.cfg.HedgeAfter > 0
	var hedgeC <-chan time.Time
	if canHedge {
		timer := time.NewTimer(rt.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	outstanding := 1
	var last result
	for {
		select {
		case res := <-ch:
			if res.err == nil {
				return res.code, res.body, nil
			}
			last = res
			outstanding--
			if canHedge {
				canHedge = false
				hedgeC = nil
				rt.hedges.Inc()
				outstanding++
				//ssdlint:allow goroleak request-scoped hedge: bounded by the same per-node deadline ctx as the first attempt
				go fire()
				continue
			}
			if outstanding == 0 {
				return last.code, last.body, last.err
			}
		case <-hedgeC:
			hedgeC = nil
			canHedge = false
			rt.hedges.Inc()
			outstanding++
			//ssdlint:allow goroleak request-scoped hedge: bounded by the same per-node deadline ctx as the first attempt
			go fire()
		}
	}
}

// leg is one partition's share of a scatter-gather.
type leg struct {
	part string // partition (primary name)
	node string // endpoint actually targeted
	code int
	body []byte
	err  error
}

// failed reports whether the leg produced no usable answer: transport
// error, deadline, or a 5xx/429 from the node.
func (l *leg) failed() bool {
	return l.err != nil || l.code >= 500 || l.code == http.StatusTooManyRequests
}

// scatter fans a request to every partition's active endpoint and
// gathers the legs in partition order.
func (rt *Router) scatter(ctx context.Context, method, pathAndQuery string, body []byte, hedge bool) []leg {
	parts := rt.ring.Partitions()
	legs := make([]leg, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part string) {
			defer wg.Done()
			node, url := rt.target(part)
			code, b, err := rt.doHedged(ctx, method, url+pathAndQuery, contentTypeJSON, body, hedge)
			legs[i] = leg{part: part, node: node, code: code, body: b, err: err}
		}(i, part)
	}
	wg.Wait()
	for i := range legs {
		if legs[i].failed() {
			rt.degraded.With(legs[i].node).Inc()
		}
	}
	return legs
}

// degradedList returns the sorted endpoint names of failed legs.
func degradedList(legs []leg) []string {
	out := []string{}
	for i := range legs {
		if legs[i].failed() {
			out = append(out, legs[i].node)
		}
	}
	sort.Strings(out)
	return out
}

// readBody reads the size-capped request body. When the read fails it
// answers the request itself and returns false: 413 for a body over
// MaxBodyBytes, 400 for any other failure (a client hanging up
// mid-body), as the node's decodeJSON does.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err.Error())
		return nil, false
	}
	return body, true
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		DriveID *uint32 `json:"drive_id"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || probe.DriveID == nil {
		writeError(w, http.StatusBadRequest, "malformed record: drive_id required")
		return
	}
	part := rt.ring.Owner(*probe.DriveID)
	node, url := rt.target(part)
	code, b, err := rt.doHedged(r.Context(), http.MethodPost, url+"/v1/ingest", contentTypeJSON, body, false)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":    fmt.Sprintf("partition %s unreachable: %v", part, err),
			"degraded": []string{node},
		})
		return
	}
	relay(w, code, b)
}

// relay forwards a node's response verbatim.
func relay(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	//ssdlint:allow droppederr client gone; nothing durable is at stake
	w.Write(body)
}

// nodeBatchReply is the slice of a node's batch response the router
// aggregates.
type nodeBatchReply struct {
	Accepted int             `json:"accepted"`
	Rejected int             `json:"rejected"`
	Dropped  int             `json:"dropped"`
	Errors   json.RawMessage `json:"errors"`
}

// batchLeg is one partition's share of a split ingest batch: the
// pre-built request body going out and the node's reply coming back.
type batchLeg struct {
	leg
	sub     []byte // request body for this partition
	records int
	reply   nodeBatchReply
}

// forwardBatchLegs posts each leg's pre-built body to its partition's
// active endpoint concurrently, aggregates the node replies, and writes
// the router's batch response. Both ingest wires share this tail: a
// failed or unparseable leg degrades the response and counts its
// records as dropped (the whole batch is safe to retry — duplicates are
// rejected benignly), and the status policy is dropped/degraded → 503,
// nothing accepted of a non-empty batch → 422, otherwise → 202.
func (rt *Router) forwardBatchLegs(w http.ResponseWriter, r *http.Request, path, contentType string, legs []batchLeg, rejected, total int) {
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(bl *batchLeg) {
			defer wg.Done()
			node, url := rt.target(bl.part)
			bl.node = node
			bl.code, bl.body, bl.err = rt.doHedged(r.Context(), http.MethodPost, url+path, contentType, bl.sub, false)
		}(&legs[i])
	}
	wg.Wait()

	accepted, dropped := 0, 0
	var errList []json.RawMessage
	degraded := []string{}
	for i := range legs {
		bl := &legs[i]
		if bl.failed() {
			rt.degraded.With(bl.node).Inc()
			degraded = append(degraded, bl.node)
			dropped += bl.records
			continue
		}
		if err := json.Unmarshal(bl.body, &bl.reply); err != nil {
			degraded = append(degraded, bl.node)
			dropped += bl.records
			continue
		}
		accepted += bl.reply.Accepted
		rejected += bl.reply.Rejected
		dropped += bl.reply.Dropped
		if len(errList) < 10 && len(bl.reply.Errors) > 0 && string(bl.reply.Errors) != "null" {
			errList = append(errList, bl.reply.Errors)
		}
	}
	sort.Strings(degraded)
	resp := map[string]any{
		"accepted": accepted,
		"rejected": rejected,
		"dropped":  dropped,
		"errors":   errList,
		"degraded": degraded,
	}
	switch {
	case dropped > 0 || len(degraded) > 0:
		// Some records did not reach a durable node. The batch is safe
		// to retry wholesale: re-sent duplicates are rejected benignly.
		resp["error"] = "one or more partitions unreachable; retry the batch"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case accepted == 0 && total > 0:
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	default:
		writeJSON(w, http.StatusAccepted, resp)
	}
}

func (rt *Router) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		writeError(w, http.StatusBadRequest, "malformed batch: "+err.Error())
		return
	}
	// Split the batch by ring owner, preserving intra-partition order
	// (per-drive day order is the store's invariant, and all of one
	// drive's records land in one partition).
	groups := make(map[string][]json.RawMessage)
	rejected := 0
	for _, raw := range raws {
		var probe struct {
			DriveID *uint32 `json:"drive_id"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil || probe.DriveID == nil {
			rejected++
			continue
		}
		part := rt.ring.Owner(*probe.DriveID)
		groups[part] = append(groups[part], raw)
	}
	parts := rt.ring.Partitions()
	legs := make([]batchLeg, 0, len(parts))
	for _, part := range parts {
		if len(groups[part]) == 0 {
			continue
		}
		sub, err := json.Marshal(groups[part])
		if err != nil {
			writeError(w, http.StatusInternalServerError, "re-encoding batch: "+err.Error())
			return
		}
		legs = append(legs, batchLeg{leg: leg{part: part}, sub: sub, records: len(groups[part])})
	}
	rt.forwardBatchLegs(w, r, "/v1/ingest/batch", contentTypeJSON, legs, rejected, len(raws))
}

// handleIngestBin splits a binary ingest batch by ring owner without
// re-encoding: each accepted frame's raw bytes are sliced out of the
// request body and concatenated into the owning partition's sub-batch
// behind a fresh header, so the bytes a node receives — and appends to
// its WAL — are exactly the bytes the client framed. Any framing
// violation (bad header, length/count mismatch, short or corrupt frame)
// fails the whole batch with a 400 before anything is forwarded: the
// fixed-size frame invariant the nodes enforce cannot hold for a
// partial split.
func (rt *Router) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	count, rest, err := serve.ParseBinHeader(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if int64(count)*int64(serve.BinFrameSize) != int64(len(rest)) {
		writeError(w, http.StatusBadRequest, "batch length does not match declared record count")
		return
	}
	type binGroup struct {
		n      int
		frames []byte // raw frame bytes, client order preserved
	}
	groups := make(map[string]*binGroup)
	for i := 0; i < count; i++ {
		payload, next, err := trace.NextFrame(rest, serve.BinRecordSize)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("corrupt frame: record %d: %v", i, err))
			return
		}
		if len(payload) != serve.BinRecordSize {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("corrupt frame: record %d: short payload", i))
			return
		}
		frame := rest[:len(rest)-len(next)]
		part := rt.ring.Owner(binary.LittleEndian.Uint32(payload))
		g := groups[part]
		if g == nil {
			g = &binGroup{}
			groups[part] = g
		}
		g.n++
		g.frames = append(g.frames, frame...)
		rest = next
	}
	parts := rt.ring.Partitions()
	legs := make([]batchLeg, 0, len(parts))
	for _, part := range parts {
		g := groups[part]
		if g == nil {
			continue
		}
		sub := serve.AppendBinHeader(make([]byte, 0, serve.BinHeaderSize+len(g.frames)), g.n)
		sub = append(sub, g.frames...)
		legs = append(legs, batchLeg{leg: leg{part: part}, sub: sub, records: g.n})
	}
	rt.forwardBatchLegs(w, r, "/v1/ingest/bin", contentTypeBinary, legs, 0, count)
}

// watchItem mirrors the node watchlist entry; the router re-ranks the
// merged set.
type watchItem struct {
	DriveID   uint32  `json:"drive_id"`
	Model     string  `json:"model"`
	Score     float64 `json:"score"`
	Day       int32   `json:"day"`
	Age       int32   `json:"age"`
	Threshold float64 `json:"threshold"`
	Margin    float64 `json:"margin"`
}

func (rt *Router) handleWatchlist(w http.ResponseWriter, r *http.Request) {
	k := 50
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad k: "+err.Error())
			return
		}
		k = n
	}
	path := "/v1/watchlist"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	legs := rt.scatter(r.Context(), http.MethodGet, path, nil, true)

	type nodeReply struct {
		ModelVersion int         `json:"model_version"`
		Lookahead    int32       `json:"lookahead"`
		Threshold    float64     `json:"threshold"`
		FleetSize    int         `json:"fleet_size"`
		Items        []watchItem `json:"items"`
	}
	var (
		items      []watchItem
		fleetSize  int
		minVersion = 0
		lookahead  int32
		threshold  float64
		haveReply  bool
	)
	for i := range legs {
		l := &legs[i]
		if l.failed() || l.code != http.StatusOK {
			continue
		}
		var nr nodeReply
		if err := json.Unmarshal(l.body, &nr); err != nil {
			continue
		}
		if !haveReply {
			lookahead, threshold = nr.Lookahead, nr.Threshold
			minVersion = nr.ModelVersion
			haveReply = true
		} else if nr.ModelVersion < minVersion {
			minVersion = nr.ModelVersion
		}
		fleetSize += nr.FleetSize
		items = append(items, nr.Items...)
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].DriveID < items[b].DriveID
	})
	if k >= 0 && len(items) > k {
		items = items[:k]
	}
	if items == nil {
		items = []watchItem{}
	}
	// Partial results are explicitly degraded, never silently
	// truncated: the response is a 200 whose degraded list names every
	// partition endpoint missing from the merge.
	writeJSON(w, http.StatusOK, map[string]any{
		"model_version": minVersion,
		"lookahead":     lookahead,
		"threshold":     threshold,
		"fleet_size":    fleetSize,
		"count":         len(items),
		"items":         items,
		"degraded":      degradedList(legs),
	})
}

func (rt *Router) handleDrive(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad drive id: %v", err))
		return
	}
	part := rt.ring.Owner(uint32(id64))
	node, url := rt.target(part)
	code, b, err := rt.doHedged(r.Context(), http.MethodGet, url+"/v1/drive/"+r.PathValue("id"), contentTypeJSON, nil, true)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":    fmt.Sprintf("partition %s unreachable: %v", part, err),
			"degraded": []string{node},
		})
		return
	}
	relay(w, code, b)
}

func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	legs := rt.scatter(r.Context(), http.MethodGet, "/v1/model", nil, true)
	nodes := map[string]json.RawMessage{}
	minVersion := 0
	have := false
	for i := range legs {
		l := &legs[i]
		if l.failed() || l.code != http.StatusOK {
			continue
		}
		nodes[l.node] = json.RawMessage(l.body)
		var info struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(l.body, &info); err == nil {
			if !have || info.Version < minVersion {
				minVersion = info.Version
			}
			have = true
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":  minVersion,
		"nodes":    nodes,
		"degraded": degradedList(legs),
	})
}

// handleBroadcastPOST fans a POST to every partition and returns each
// node's raw reply plus the degraded list — used for model reloads,
// snapshots, and remediation ticks, whose per-node responses matter
// individually.
func (rt *Router) handleBroadcastPOST(path string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		legs := rt.scatter(r.Context(), http.MethodPost, path, nil, false)
		nodes := map[string]json.RawMessage{}
		for i := range legs {
			l := &legs[i]
			if l.failed() {
				continue
			}
			nodes[l.node] = json.RawMessage(l.body)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"nodes":    nodes,
			"degraded": degradedList(legs),
		})
	}
}

// parseExposition splits Prometheus text format into series -> value.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// handleMetrics serves the fleet rollup: every node series summed
// across reachable partitions, then the router's own series. A
// degraded scrape is visible both in the ssdrouter_degraded_legs_total
// counters and in the rollup coverage gauge emitted here.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	legs := rt.scatter(r.Context(), http.MethodGet, "/metrics", nil, true)
	sums := make(map[string]float64)
	covered := 0
	for i := range legs {
		l := &legs[i]
		if l.failed() || l.code != http.StatusOK {
			continue
		}
		covered++
		for series, v := range parseExposition(string(l.body)) {
			sums[series] += v
		}
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", serve.MetricsContentType)
	var b strings.Builder
	fmt.Fprintf(&b, "# Fleet rollup: %d/%d partitions\n", covered, len(legs))
	fmt.Fprintf(&b, "ssdrouter_rollup_partitions_covered %d\n", covered)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, strconv.FormatFloat(sums[k], 'g', -1, 64))
	}
	//ssdlint:allow droppederr scrape write failed means the client hung up; nothing durable is at stake
	io.WriteString(w, b.String())
	//ssdlint:allow droppederr same scrape write; router-side series follow the rollup
	rt.metrics.WriteTo(w)
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	status := rt.tracker.Status()
	events := rt.tracker.Log().Recent(100)
	round := rt.round
	rt.mu.Unlock()
	lines := make([]string, len(events))
	for i, e := range events {
		lines[i] = e.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"partitions":   rt.ring.Partitions(),
		"endpoints":    status,
		"probe_rounds": round,
		"events":       lines,
	})
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ready",
		"role":       "router",
		"partitions": len(rt.cfg.Nodes),
	})
}

// Metrics exposes the router's metrics registry.
func (rt *Router) Metrics() *serve.Metrics { return rt.metrics }

// Tracker returns the failover state machine guarded by the router's
// lock; use TrackerStatus for a safe snapshot.
func (rt *Router) TrackerStatus() []EndpointStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.tracker.Status()
}

// AllUp reports whether every endpoint currently passes probes — the
// chaos harness polls this before running end-state conformance.
func (rt *Router) AllUp() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, name := range rt.tracker.Endpoints() {
		if !rt.tracker.Up(name) {
			return false
		}
	}
	return true
}

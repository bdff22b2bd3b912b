package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"ssdfail/internal/fleetsim"
	"ssdfail/internal/rng"
	"ssdfail/internal/trace"
)

// Mode selects how the runner paces requests.
type Mode string

const (
	// ModeClosed drives each stream in a closed loop: the next request
	// fires as soon as the previous response lands. Measures capacity.
	ModeClosed Mode = "closed"
	// ModeOpen drives each stream on a precomputed arrival schedule
	// (seeded exponential inter-arrivals): requests fire at their
	// scheduled offset regardless of how fast responses come back.
	// Measures latency under a fixed offered load without coordinated
	// omission from the client side.
	ModeOpen Mode = "open"
)

// Config parameterizes schedule construction. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Seed fixes everything: the simulated fleet being replayed, probe
	// placement, probe targets, and open-loop arrival times. Two builds
	// with equal Config produce byte-identical schedules.
	Seed uint64
	Mode Mode
	// Streams is the number of concurrent request streams. Drives are
	// partitioned across streams (drive index mod Streams) and each
	// stream is strictly sequential, so every drive's day ordering —
	// which the daemon's store enforces — is preserved by construction.
	Streams int
	// DrivesPerModel and HorizonDays size the fleetsim fleet whose tail
	// is replayed.
	DrivesPerModel int
	HorizonDays    int32
	// Days is the replay window: records from the last Days days of the
	// trace become ingest traffic.
	Days int32
	// BatchSize is the number of records per POST /v1/ingest/batch.
	BatchSize int
	// ProbeEvery interleaves one read-path probe (watchlist, drive
	// inspection, model info, or metrics scrape) after every ProbeEvery
	// ingest batches.
	ProbeEvery int
	// RatePerStream is the open-loop offered load in requests/second per
	// stream (ignored in closed-loop mode).
	RatePerStream float64
	// ReloadMidRun inserts one POST /v1/model/reload at the midpoint of
	// stream 0, so every run exercises a hot swap under load.
	ReloadMidRun bool
	// RemedyEvery interleaves one POST /v1/remedy/evaluate (a
	// remediation policy tick) after every RemedyEvery ingest batches on
	// stream 0, so a remediation-enabled daemon is exercised under load.
	// 0 schedules none. Against a daemon without -remedy the ticks
	// answer 409, which still conformance-checks the accounting.
	RemedyEvery int
	// DriveIDOffset shifts every replayed drive's ID. Conformance needs
	// drives and days the daemon has not already ingested — the store
	// (correctly) rejects regressing days and model changes — so repeat
	// runs against a long-lived daemon should each use a disjoint offset.
	DriveIDOffset uint32
	// Wire selects the ingest wire format: WireJSON (default) batches to
	// POST /v1/ingest/batch, WireBinary frames the same records for
	// POST /v1/ingest/bin. Everything else about the schedule — records,
	// ordering, probes — is identical, so a JSON and a binary run drive
	// the daemon into the same end state.
	Wire string
	// DriftWriteMult > 0 injects a mid-run distribution shift: a second
	// fleetsim cohort whose models run DriftWriteMult times the write
	// workload, entering the replay at the DriftAfterFrac point of the
	// window (default 0.5) on a disjoint ID range (DriftIDOffset above
	// DriveIDOffset). The ingested write distribution steps when the
	// cohort comes online — the trigger the continuous-learning
	// trainer's KS drift check is built to catch. 0 disables.
	DriftWriteMult float64
	// DriftAfterFrac is the fraction of the replay window after which
	// the drift cohort's records begin (only with DriftWriteMult > 0).
	DriftAfterFrac float64
	// DriftDrivesPerModel sizes the drift cohort (default
	// DrivesPerModel).
	DriftDrivesPerModel int
	// HazardMult scales every model's failure hazards (base and infant)
	// in both the base fleet and the drift cohort. Short replay windows
	// of a calibrated fleet contain almost no failures; training-loop
	// tests raise this so the window carries enough labeled failures to
	// retrain from. 0 means 1 (calibrated rates).
	HazardMult float64
}

// DriftIDOffset separates the drift cohort's drive IDs from the base
// fleet's within one schedule (both are additionally shifted by
// Config.DriveIDOffset).
const DriftIDOffset = 1 << 18

// Wire formats for Config.Wire.
const (
	WireJSON   = "json"
	WireBinary = "binary"
)

// DefaultConfig returns a schedule sized for a laptop-scale soak: a
// 3-model fleet replayed over its final month.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		Mode:           ModeClosed,
		Streams:        4,
		DrivesPerModel: 24,
		HorizonDays:    365,
		Days:           30,
		BatchSize:      16,
		ProbeEvery:     8,
		RatePerStream:  200,
		ReloadMidRun:   true,
	}
}

func (c Config) withDefaults() (Config, error) {
	d := DefaultConfig(c.Seed)
	if c.Mode == "" {
		c.Mode = d.Mode
	}
	if c.Mode != ModeClosed && c.Mode != ModeOpen {
		return c, fmt.Errorf("loadgen: unknown mode %q", c.Mode)
	}
	if c.Streams <= 0 {
		c.Streams = d.Streams
	}
	if c.DrivesPerModel <= 0 {
		c.DrivesPerModel = d.DrivesPerModel
	}
	if c.HorizonDays <= 0 {
		c.HorizonDays = d.HorizonDays
	}
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.Days > c.HorizonDays {
		c.Days = c.HorizonDays
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = d.ProbeEvery
	}
	if c.RatePerStream <= 0 {
		c.RatePerStream = d.RatePerStream
	}
	if c.HorizonDays < 90 {
		return c, fmt.Errorf("loadgen: horizon %d too short (fleetsim needs >= 90)", c.HorizonDays)
	}
	if c.Wire == "" {
		c.Wire = WireJSON
	}
	if c.Wire != WireJSON && c.Wire != WireBinary {
		return c, fmt.Errorf("loadgen: unknown wire format %q", c.Wire)
	}
	if c.DriftWriteMult < 0 {
		return c, fmt.Errorf("loadgen: negative drift write multiplier %g", c.DriftWriteMult)
	}
	if c.HazardMult < 0 {
		return c, fmt.Errorf("loadgen: negative hazard multiplier %g", c.HazardMult)
	}
	if c.HazardMult == 0 {
		c.HazardMult = 1
	}
	if c.DriftWriteMult > 0 {
		if c.DriftAfterFrac <= 0 || c.DriftAfterFrac >= 1 {
			c.DriftAfterFrac = 0.5
		}
		if c.DriftDrivesPerModel <= 0 {
			c.DriftDrivesPerModel = c.DrivesPerModel
		}
	}
	return c, nil
}

// OpKind identifies one request type. String values match the daemon's
// handler labels so client-side accounting lines up with the
// ssdserved_http_requests_total{handler=...} series one-to-one.
type OpKind uint8

const (
	OpIngestBatch OpKind = iota
	OpWatchlist
	OpDrive
	OpModel
	OpMetrics
	OpReload
	OpRemedyEvaluate
	OpIngestBin // appended last: OpKind values feed the schedule hash
)

var opNames = [...]string{"ingest_batch", "watchlist", "drive", "model", "metrics", "model_reload", "remedy_evaluate", "ingest_bin"}

func (k OpKind) String() string { return opNames[k] }

// Method returns the HTTP method for the op kind.
func (k OpKind) Method() string {
	switch k {
	case OpIngestBatch, OpIngestBin, OpReload, OpRemedyEvaluate:
		return "POST"
	default:
		return "GET"
	}
}

// ContentType returns the body MIME type for ops that carry one.
func (k OpKind) ContentType() string {
	if k == OpIngestBin {
		return "application/octet-stream"
	}
	return "application/json"
}

// ingest reports whether the op carries drive-day records, i.e. shares
// the ingest retry and accounting semantics regardless of wire format.
func (k OpKind) ingest() bool { return k == OpIngestBatch || k == OpIngestBin }

// Op is one scheduled request: everything needed to fire it is
// precomputed at build time, so the hot loop does no marshaling and no
// RNG draws.
type Op struct {
	Kind OpKind
	// At is the offset from run start at which the op becomes eligible
	// (open-loop only; zero in closed-loop schedules).
	At   time.Duration
	Path string
	// Body is the pre-marshaled JSON payload (ingest batches only).
	Body []byte
	// Records is the number of drive-day records in an ingest batch.
	Records int
}

// Stream is one strictly sequential lane of requests.
type Stream struct{ Ops []Op }

// DriveExpect is what the daemon must report for one drive after every
// scheduled ingest for it has been accepted.
type DriveExpect struct {
	Model   string
	Records int
	LastDay int32
	LastAge int32
}

// Schedule is a fully materialized load plan: per-stream op lists plus
// the ground truth needed to check the daemon's end state against what
// was driven into it.
type Schedule struct {
	Cfg     Config
	Streams []Stream
	// Drives maps every replayed drive to its expected end state.
	Drives map[uint32]DriveExpect
	// Reloads is the number of scheduled model-reload ops.
	Reloads int
	// RemedyTicks is the number of scheduled remediation evaluations.
	RemedyTicks int
	// Hash is the SHA-256 of the canonical schedule serialization; equal
	// configs yield equal hashes, making reproducibility checkable.
	Hash string

	TotalRequests int
	TotalRecords  int
}

// scheduleRNG namespaces the RNG streams drawn from the seed so probe
// placement and open-loop arrivals cannot alias each other or the
// fleet simulation.
const (
	rngStreamProbes   = 0x10ad<<8 | 1
	rngStreamArrivals = 0x10ad<<8 | 2
)

// Build generates the fleet, slices the replay window, and materializes
// every request of every stream.
func Build(cfg Config) (*Schedule, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	fleet, err := buildFleet(cfg)
	if err != nil {
		return nil, err
	}

	sched := &Schedule{
		Cfg:     cfg,
		Streams: make([]Stream, cfg.Streams),
		Drives:  make(map[uint32]DriveExpect),
	}

	// Partition drives across streams, then lay each stream's records
	// out fleet-style: ordered by (day, drive), so the daemon sees the
	// whole partition reporting day by day. Per-drive day order — the
	// store's hard invariant — is preserved because a drive lives in
	// exactly one stream and its trace days are strictly increasing.
	type rec struct {
		id    uint32
		model trace.Model
		day   int32
		r     *trace.DayRecord
	}
	windowStart := fleet.Horizon - cfg.Days
	perStream := make([][]rec, cfg.Streams)
	addDrive := func(idx int, d *trace.Drive, idOffset uint32, from int32) {
		id := d.ID + idOffset
		s := idx % cfg.Streams
		n := 0
		var last *trace.DayRecord
		for j := range d.Days {
			if d.Days[j].Day < from {
				continue
			}
			perStream[s] = append(perStream[s], rec{id, d.Model, d.Days[j].Day, &d.Days[j]})
			last = &d.Days[j]
			n++
		}
		if n > 0 {
			sched.Drives[id] = DriveExpect{
				Model:   d.Model.String(),
				Records: n,
				LastDay: last.Day,
				LastAge: last.Age,
			}
		}
	}
	for i := range fleet.Drives {
		addDrive(i, &fleet.Drives[i], cfg.DriveIDOffset, windowStart)
	}
	if cfg.DriftWriteMult > 0 {
		// The drift cohort: a write-shifted fleet whose drives come
		// online partway through the replay window, stepping the
		// ingested write distribution mid-run. Cohort drives continue
		// the base fleet's stream round-robin so every stream sees the
		// shift, and per-drive day ordering still holds because each
		// drive lives in exactly one stream.
		drift, err := buildDriftFleet(cfg)
		if err != nil {
			return nil, err
		}
		driftStart := windowStart + int32(cfg.DriftAfterFrac*float64(cfg.Days))
		for j := range drift.Drives {
			addDrive(len(fleet.Drives)+j, &drift.Drives[j], cfg.DriveIDOffset+DriftIDOffset, driftStart)
		}
	}

	root := rng.New(cfg.Seed)
	for s := range perStream {
		recs := perStream[s]
		sort.SliceStable(recs, func(a, b int) bool {
			if recs[a].day != recs[b].day {
				return recs[a].day < recs[b].day
			}
			return recs[a].id < recs[b].id
		})
		probeRNG := root.Derive(uint64(rngStreamProbes)<<32 | uint64(s))
		var ops []Op
		var seen []uint32 // drives with at least one batch already scheduled
		inSeen := make(map[uint32]bool)
		batches := 0
		for off := 0; off < len(recs); off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > len(recs) {
				end = len(recs)
			}
			kind, path := OpIngestBatch, "/v1/ingest/batch"
			var body []byte
			if cfg.Wire == WireBinary {
				kind, path = OpIngestBin, "/v1/ingest/bin"
				body = trace.AppendBinHeader(nil, end-off)
				for _, r := range recs[off:end] {
					body = trace.AppendBinRecord(body, r.id, r.model, r.r)
				}
			} else {
				batch := make([]trace.IngestRecord, 0, end-off)
				for _, r := range recs[off:end] {
					batch = append(batch, trace.WireRecord(r.id, r.model, r.r))
				}
				body, err = json.Marshal(batch)
				if err != nil {
					return nil, fmt.Errorf("loadgen: marshaling batch: %w", err)
				}
			}
			for _, r := range recs[off:end] {
				if !inSeen[r.id] {
					inSeen[r.id] = true
					seen = append(seen, r.id)
				}
			}
			ops = append(ops, Op{
				Kind:    kind,
				Path:    path,
				Body:    body,
				Records: end - off,
			})
			batches++
			if batches%cfg.ProbeEvery == 0 {
				ops = append(ops, probeOp(probeRNG, seen))
			}
			if s == 0 && cfg.RemedyEvery > 0 && batches%cfg.RemedyEvery == 0 {
				ops = append(ops, Op{Kind: OpRemedyEvaluate, Path: "/v1/remedy/evaluate"})
				sched.RemedyTicks++
			}
		}
		sched.Streams[s].Ops = ops
	}

	if cfg.ReloadMidRun && len(sched.Streams[0].Ops) > 0 {
		ops := sched.Streams[0].Ops
		mid := len(ops) / 2
		ops = append(ops[:mid:mid], append([]Op{{Kind: OpReload, Path: "/v1/model/reload"}}, ops[mid:]...)...)
		sched.Streams[0].Ops = ops
		sched.Reloads = 1
	}

	if cfg.Mode == ModeOpen {
		for s := range sched.Streams {
			arrRNG := root.Derive(uint64(rngStreamArrivals)<<32 | uint64(s))
			var at float64 // seconds
			for i := range sched.Streams[s].Ops {
				at += arrRNG.Exp(1 / cfg.RatePerStream)
				sched.Streams[s].Ops[i].At = time.Duration(at * float64(time.Second))
			}
		}
	}

	for s := range sched.Streams {
		sched.TotalRequests += len(sched.Streams[s].Ops)
		for i := range sched.Streams[s].Ops {
			sched.TotalRecords += sched.Streams[s].Ops[i].Records
		}
	}
	sched.Hash = sched.hash()
	return sched, nil
}

// probeOp picks one read-path probe. The drive-inspection probe always
// targets a drive whose first batch is already scheduled earlier in the
// same stream, so in a sequential replay it can never race its own
// ingest.
func probeOp(rng *rng.RNG, seen []uint32) Op {
	switch rng.Intn(4) {
	case 0:
		return Op{Kind: OpWatchlist, Path: "/v1/watchlist"}
	case 1:
		if len(seen) > 0 {
			id := seen[rng.Intn(len(seen))]
			return Op{Kind: OpDrive, Path: "/v1/drive/" + strconv.FormatUint(uint64(id), 10)}
		}
		return Op{Kind: OpModel, Path: "/v1/model"}
	case 2:
		return Op{Kind: OpModel, Path: "/v1/model"}
	default:
		return Op{Kind: OpMetrics, Path: "/metrics"}
	}
}

// buildFleet sizes a fleetsim configuration from the schedule config.
// The deployment window scales with the horizon so short load-test
// fleets still validate.
func buildFleet(cfg Config) (*trace.Fleet, error) {
	fc := fleetsim.FleetConfig{
		Seed:        cfg.Seed,
		HorizonDays: cfg.HorizonDays,
		Models: []fleetsim.ModelConfig{
			fleetsim.DefaultModelConfig(trace.MLCA, cfg.DrivesPerModel),
			fleetsim.DefaultModelConfig(trace.MLCB, cfg.DrivesPerModel),
			fleetsim.DefaultModelConfig(trace.MLCD, cfg.DrivesPerModel),
		},
		EarlyFrac:   0.55,
		EarlyWindow: cfg.HorizonDays / 3,
	}
	scaleHazards(fc.Models, cfg.HazardMult)
	fleet, _, err := fleetsim.Generate(fc)
	if err != nil {
		return nil, fmt.Errorf("loadgen: generating fleet: %w", err)
	}
	return fleet, nil
}

// scaleHazards applies Config.HazardMult to every model's failure
// hazards.
func scaleHazards(models []fleetsim.ModelConfig, mult float64) {
	if mult == 1 {
		return
	}
	for i := range models {
		models[i].BaseHazard *= mult
		models[i].InfantHazard *= mult
	}
}

// buildDriftFleet generates the write-shifted drift cohort: the same
// three models with WriteScale multiplied, on a seed derived from the
// schedule seed so cohort traces are uncorrelated with the base
// fleet's.
func buildDriftFleet(cfg Config) (*trace.Fleet, error) {
	models := []fleetsim.ModelConfig{
		fleetsim.DefaultModelConfig(trace.MLCA, cfg.DriftDrivesPerModel),
		fleetsim.DefaultModelConfig(trace.MLCB, cfg.DriftDrivesPerModel),
		fleetsim.DefaultModelConfig(trace.MLCD, cfg.DriftDrivesPerModel),
	}
	for i := range models {
		models[i].WriteScale *= cfg.DriftWriteMult
	}
	scaleHazards(models, cfg.HazardMult)
	fc := fleetsim.FleetConfig{
		Seed:        cfg.Seed ^ 0xd21f7,
		HorizonDays: cfg.HorizonDays,
		Models:      models,
		EarlyFrac:   0.55,
		EarlyWindow: cfg.HorizonDays / 3,
	}
	fleet, _, err := fleetsim.Generate(fc)
	if err != nil {
		return nil, fmt.Errorf("loadgen: generating drift cohort: %w", err)
	}
	return fleet, nil
}

// hash computes the SHA-256 of the canonical serialization: every op of
// every stream in order, covering kind, arrival offset, path, and body.
// Anything that changes what the daemon would see changes the hash.
func (s *Schedule) hash() string {
	h := sha256.New()
	var buf [8]byte
	for i := range s.Streams {
		fmt.Fprintf(h, "stream %d\n", i)
		for _, op := range s.Streams[i].Ops {
			h.Write([]byte{byte(op.Kind)})
			putInt64(&buf, int64(op.At))
			h.Write(buf[:])
			h.Write([]byte(op.Path))
			h.Write([]byte{0})
			h.Write(op.Body)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInt64(buf *[8]byte, v int64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

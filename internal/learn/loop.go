package learn

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"

	"ssdfail/internal/core"
	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/eventlog"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/failure"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/trace"
)

// Config parameterizes the learning loop. The zero value is not usable;
// unset fields take the documented defaults via withDefaults.
type Config struct {
	// Scope restricts training to one drive model ("" or "all" trains
	// on every model). Out-of-scope stream records still advance the
	// cursor but feed neither the fleet state nor the drift windows.
	Scope string
	// Lookahead N: the retrained predictor estimates P(failure within N
	// days). Default 7.
	Lookahead int
	// Seed is the base seed; every random choice is derived from it and
	// a canonical key via expgrid.DeriveSeed. The retrain key includes
	// the snapshot LSN, so a given WAL prefix reproduces a given model.
	Seed uint64
	// Workers parallelizes classifier training. Results are worker-count
	// independent (per-tree seeds); default 1.
	Workers int
	// Trees is the challenger forest size. Default 25 — a quarter of
	// the offline Table 6 forest, sized for frequent retrains.
	Trees int
	// HoldoutFraction of drives (by stable ID hash) is never trained
	// on and scores both champion and challenger. Default 0.25.
	HoldoutFraction float64
	// Margin is the non-inferiority gate: promote when
	// challengerAUC >= championAUC - Margin. Default 0.01.
	Margin float64
	// Window is the drift window size in records; CheckEvery is the
	// check cadence. Defaults 256 and 64.
	Window     int
	CheckEvery int
	// Alpha is the KS p-value threshold. Default 1e-3.
	Alpha float64
	// MinTrainRows gates retraining until enough labeled rows exist.
	// Default 256.
	MinTrainRows int
	// CooldownRecords suppresses drift checks for this many records
	// after a retrain attempt. Default 2*Window.
	CooldownRecords int
	// QuietDays: a drive silent for more than this many days behind the
	// fleet frontier is deemed failed (see synthesizeSwaps). Default 14.
	QuietDays int32
	// DownsampleRatio is negatives per positive in training. Default 5.
	DownsampleRatio float64
	// ObserveEvery emits a progress event every that many records.
	// Default 1024; negative disables.
	ObserveEvery int
	// StartLSN is the stream cursor before the first record, so the
	// k-th record fed has LSN StartLSN+k. Default 0 (a from-genesis
	// tail, where the first WAL record is LSN 1).
	StartLSN uint64
	// CacheBytes bounds the per-drive feature-matrix cache (0 = 64 MiB).
	CacheBytes int64
	// Channels are the drift dimensions (nil = DefaultChannels).
	Channels []Channel
	// Champion is the currently serving predictor (nil = none yet: the
	// first viable challenger is promoted unconditionally).
	Champion *core.Predictor
	// Donor, when Champion is nil, seeds the champion slot with another
	// drive model's predictor — the paper's Table 8 cross-model
	// transfer as a live bootstrap: the donor serves (and sets the bar)
	// until a locally trained challenger beats it on local holdout.
	Donor *core.Predictor
	// Promote installs a passed challenger (write bytes + trigger the
	// daemon's reload). nil = record the decision but skip the side
	// effect (replay/analysis mode). A Promote error rejects the
	// challenger and keeps the champion.
	Promote func(encoded []byte, o Outcome) error
	// MutateTrain, when set, is applied to the assembled training matrix
	// before downsampling. It is a test seam: scrambling the labels here
	// produces a deliberately crippled challenger, which the
	// non-inferiority gate must reject while the champion keeps serving.
	MutateTrain func(m *dataset.Matrix)
	// Sink receives canonical event lines (nil = ring only).
	Sink io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scope == "" {
		c.Scope = "all"
	}
	if c.Lookahead <= 0 {
		c.Lookahead = 7
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Trees <= 0 {
		c.Trees = 25
	}
	if c.HoldoutFraction <= 0 || c.HoldoutFraction >= 1 {
		c.HoldoutFraction = 0.25
	}
	if c.Margin <= 0 {
		c.Margin = 0.01
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 64
	}
	if c.Alpha <= 0 {
		c.Alpha = 1e-3
	}
	if c.MinTrainRows <= 0 {
		c.MinTrainRows = 256
	}
	if c.CooldownRecords <= 0 {
		c.CooldownRecords = 2 * c.Window
	}
	if c.QuietDays <= 0 {
		c.QuietDays = 14
	}
	if c.DownsampleRatio <= 0 {
		c.DownsampleRatio = 5
	}
	if c.ObserveEvery == 0 {
		c.ObserveEvery = 1024
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Channels == nil {
		c.Channels = DefaultChannels()
	}
	return c
}

// Outcome summarizes one retrain attempt.
type Outcome struct {
	LSN           uint64
	Seed          uint64
	TrainRows     int
	TrainPos      int
	HoldoutRows   int
	HoldoutPos    int
	TrainDrives   int
	HoldoutDrives int
	ChampionAUC   float64 // NaN when no champion was serving
	ChallengerAUC float64
	ModelSHA      string // hex SHA-256 of the encoded challenger bytes
	Promoted      bool
	Reason        string // reject/skip reason when not promoted
}

// Stats is a point-in-time snapshot for metrics export.
type Stats struct {
	Records       uint64
	LSN           uint64
	Drives        int
	Frontier      int32
	DriftEvents   uint64
	Retrains      uint64
	Promotions    uint64
	Rejections    uint64
	Skips         uint64
	RowsExtracted uint64 // labeled rows assembled across all retrains
	ChampionAUC   float64
	ChallengerAUC float64
	// DriftP[i] is the last KS p-value of Channels[i] (NaN before the
	// first check).
	DriftP []float64
}

// Loop is the deterministic learning engine. It is fed stream records
// in order via Observe and is not safe for concurrent Observe calls;
// Stats and the event log are safe to read from other goroutines.
type Loop struct {
	cfg      Config
	scope    trace.Model // parsed scope; valid when scoped
	scoped   bool
	log      *eventlog.Log[Event]
	state    *fleetState
	channels []channelState
	cache    *expgrid.MatrixCache
	champion *core.Predictor

	t           uint64 // records fed (in- and out-of-scope)
	lastAttempt uint64 // t at the last retrain attempt; 0 = none
	stats       Stats
	statsMu     sync.Mutex
}

// NewLoop builds an engine. A donor-seeded champion emits a bootstrap
// event at t=0, so the transfer provenance is part of the decision log.
func NewLoop(cfg Config) (*Loop, error) {
	cfg = cfg.withDefaults()
	l := &Loop{
		cfg:   cfg,
		log:   eventlog.New[Event](cfg.Sink),
		state: newFleetState(),
		cache: expgrid.NewMatrixCache(cfg.CacheBytes),
	}
	if cfg.Scope != "all" {
		m, err := trace.ParseModel(cfg.Scope)
		if err != nil {
			return nil, fmt.Errorf("learn: scope: %w", err)
		}
		l.scope, l.scoped = m, true
	}
	for _, ch := range cfg.Channels {
		l.channels = append(l.channels, channelState{ch: ch})
	}
	l.stats.ChampionAUC = math.NaN()
	l.stats.ChallengerAUC = math.NaN()
	l.stats.DriftP = make([]float64, len(l.channels))
	for i := range l.stats.DriftP {
		l.stats.DriftP[i] = math.NaN()
	}
	l.champion = cfg.Champion
	if l.champion == nil && cfg.Donor != nil {
		l.champion = cfg.Donor
		l.emit(Event{Tick: 0, Kind: EventBootstrap, LSN: cfg.StartLSN, Fields: []Field{
			F("source", "donor"),
			Fint("lookahead", int64(cfg.Donor.Lookahead)),
		}})
	}
	return l, nil
}

// Log returns the decision log.
func (l *Loop) Log() *eventlog.Log[Event] { return l.log }

// Champion returns the predictor currently holding the champion slot.
func (l *Loop) Champion() *core.Predictor { return l.champion }

// Stats returns a snapshot of the loop's counters.
func (l *Loop) Stats() Stats {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	s := l.stats
	s.DriftP = append([]float64(nil), l.stats.DriftP...)
	return s
}

func (l *Loop) mutateStats(f func(*Stats)) {
	l.statsMu.Lock()
	f(&l.stats)
	l.statsMu.Unlock()
}

// lsn returns the stream position: the LSN of the last record fed.
func (l *Loop) lsn() uint64 { return l.cfg.StartLSN + l.t }

func (l *Loop) emit(e Event) { l.log.Append(e) }

// inScope reports whether records of this drive model feed the trainer.
func (l *Loop) inScope(m trace.Model) bool { return !l.scoped || m == l.scope }

// Observe feeds one stream record, in WAL order. All trainer behavior —
// drift checks, retrains, promotions — happens synchronously inside
// Observe at deterministic record counts.
func (l *Loop) Observe(id uint32, model trace.Model, rec trace.DayRecord) {
	l.t++
	if l.inScope(model) {
		if l.state.add(id, model, rec) {
			for i := range l.channels {
				l.channels[i].push(l.channels[i].ch.Value(&rec), l.cfg.Window)
			}
		}
	}
	l.mutateStats(func(s *Stats) {
		s.Records = l.t
		s.LSN = l.lsn()
		s.Drives = len(l.state.drives)
		s.Frontier = l.state.frontier
	})
	if l.cfg.ObserveEvery > 0 && l.t%uint64(l.cfg.ObserveEvery) == 0 {
		l.emit(Event{Tick: l.t, Kind: EventObserve, LSN: l.lsn(), Fields: []Field{
			Fint("drives", int64(len(l.state.drives))),
			Fint("records", int64(l.state.records)),
			Fint("frontier", int64(l.state.frontier)),
		}})
	}
	if l.t%uint64(l.cfg.CheckEvery) == 0 {
		l.maybeDrift()
	}
}

// driftHit is one channel's KS rejection.
type driftHit struct {
	idx  int
	d, p float64
}

// maybeDrift runs the KS checks and, when any channel rejects, the full
// retrain → evaluate → gate sequence.
func (l *Loop) maybeDrift() {
	if l.lastAttempt > 0 && l.t-l.lastAttempt < uint64(l.cfg.CooldownRecords) {
		return
	}
	var hits []driftHit
	for i := range l.channels {
		c := &l.channels[i]
		if !c.ready(l.cfg.Window) {
			continue
		}
		d, p := c.test()
		l.mutateStats(func(s *Stats) { s.DriftP[i] = p })
		if p < l.cfg.Alpha {
			hits = append(hits, driftHit{i, d, p})
		}
	}
	if len(hits) == 0 {
		return
	}
	for _, h := range hits {
		l.emit(Event{Tick: l.t, Kind: EventDrift, LSN: l.lsn(), Fields: []Field{
			F("channel", l.channels[h.idx].ch.Name),
			Ffloat("d", h.d),
			Ffloat("p", h.p),
		}})
	}
	l.mutateStats(func(s *Stats) { s.DriftEvents += uint64(len(hits)) })
	l.Retrain()
}

// appendRows copies src rows with Day <= cutoff into dst.
func appendRows(dst, src *dataset.Matrix, cutoff int32) int {
	w := src.W()
	n := 0
	for i := 0; i < src.Len(); i++ {
		if src.Day[i] > cutoff {
			continue
		}
		dst.X = append(dst.X, src.X[i*w:(i+1)*w]...)
		dst.Y = append(dst.Y, src.Y[i])
		dst.DriveIdx = append(dst.DriveIdx, src.DriveIdx[i])
		dst.Day = append(dst.Day, src.Day[i])
		dst.Age = append(dst.Age, src.Age[i])
		n++
	}
	return n
}

// aucOn scores the matrix with p and returns the ROC AUC.
func aucOn(p *core.Predictor, m *dataset.Matrix) float64 {
	scores := make([]float64, m.Len())
	p.ScoreMatrix(m, scores)
	return eval.AUC(scores, m.Y)
}

// Retrain runs one full retrain attempt at the current stream position:
// rebuild the labeled dataset (through the per-drive matrix cache),
// train a challenger seeded from the snapshot LSN, evaluate champion
// and challenger on the held-out drive partition, and promote the
// challenger only when its AUC is non-inferior. Drift triggers call it
// automatically; callers may also force an attempt (cmd/ssdtrain
// -retrain-now). Every path rebaselines the drift windows and starts
// the cooldown.
func (l *Loop) Retrain() Outcome {
	l.lastAttempt = l.t
	defer func() {
		for i := range l.channels {
			l.channels[i].rebaseline()
		}
	}()

	o := Outcome{LSN: l.lsn(), ChampionAUC: math.NaN(), ChallengerAUC: math.NaN()}

	// Assemble train and holdout matrices drive by drive, in ID order.
	// Rows within lookahead+quiet of the frontier are excluded: their
	// labels are not final yet (a failure there may still surface as a
	// synthesized swap later).
	cutoff := l.state.frontier - int32(l.cfg.Lookahead) - l.cfg.QuietDays
	holdSeed := expgrid.DeriveSeed(l.cfg.Seed, "learn/holdout")
	train, hold := &dataset.Matrix{}, &dataset.Matrix{}
	for _, id := range l.state.sortedIDs() {
		ds := l.state.drives[id]
		drive := l.state.buildDrive(ds, l.cfg.QuietDays)
		key := fmt.Sprintf("learn/%s/N=%d/drive=%d/recs=%d/swaps=%d",
			l.cfg.Scope, l.cfg.Lookahead, id, len(drive.Days), len(drive.Swaps))
		m, err := l.cache.GetOrBuild(key, func() (*dataset.Matrix, error) {
			single := &trace.Fleet{Horizon: l.state.frontier + 1, Drives: []trace.Drive{drive}}
			an := failure.Analyze(single)
			return dataset.Extract(single, an, dataset.Options{
				Lookahead: l.cfg.Lookahead,
				AgeMax:    -1,
			}), nil
		})
		if err != nil {
			return l.skip(o, "extract_error")
		}
		dst := train
		holdout := expgrid.Hash01(holdSeed, int(id)) < l.cfg.HoldoutFraction
		if holdout {
			dst = hold
		}
		if appendRows(dst, m, cutoff) > 0 {
			if holdout {
				o.HoldoutDrives++
			} else {
				o.TrainDrives++
			}
		}
	}
	o.TrainRows, o.TrainPos = train.Len(), train.Positives()
	o.HoldoutRows, o.HoldoutPos = hold.Len(), hold.Positives()
	l.mutateStats(func(s *Stats) { s.RowsExtracted += uint64(train.Len() + hold.Len()) })

	if o.TrainRows < l.cfg.MinTrainRows || o.TrainPos == 0 {
		return l.skip(o, "insufficient_train")
	}
	if o.HoldoutPos == 0 || o.HoldoutPos == o.HoldoutRows {
		return l.skip(o, "no_holdout_signal")
	}

	// Train the challenger. The seed is derived from the snapshot LSN:
	// same WAL prefix, same model bytes, at any worker count.
	o.Seed = expgrid.DeriveSeed(l.cfg.Seed, fmt.Sprintf("learn/retrain/lsn=%d", o.LSN))
	if l.cfg.MutateTrain != nil {
		l.cfg.MutateTrain(train)
	}
	sampled := dataset.Downsample(train, l.cfg.DownsampleRatio, o.Seed)
	fc := forest.DefaultConfig()
	fc.Trees = l.cfg.Trees
	fc.Seed = o.Seed
	fc.Workers = l.cfg.Workers
	challenger, err := core.TrainPredictorOnMatrix(sampled, core.PredictorOptions{
		Lookahead: l.cfg.Lookahead,
		Factory:   forest.NewFactory(fc),
	})
	if err != nil {
		return l.skip(o, "train_error")
	}
	l.mutateStats(func(s *Stats) { s.Retrains++ })
	l.emit(Event{Tick: l.t, Kind: EventRetrain, LSN: o.LSN, Fields: []Field{
		Fuint("seed", o.Seed),
		Fint("rows", int64(sampled.Len())),
		Fint("pos", int64(sampled.Positives())),
		Fint("train_drives", int64(o.TrainDrives)),
		Fint("holdout_rows", int64(o.HoldoutRows)),
		Fint("holdout_pos", int64(o.HoldoutPos)),
		Fint("holdout_drives", int64(o.HoldoutDrives)),
	}})

	// Evaluate both contenders on the same held-out drives.
	o.ChallengerAUC = aucOn(challenger, hold)
	if l.champion != nil {
		o.ChampionAUC = aucOn(l.champion, hold)
	}
	l.mutateStats(func(s *Stats) {
		s.ChampionAUC = o.ChampionAUC
		s.ChallengerAUC = o.ChallengerAUC
	})
	l.emit(Event{Tick: l.t, Kind: EventEvaluate, LSN: o.LSN, Fields: []Field{
		Ffloat("champion", o.ChampionAUC),
		Ffloat("challenger", o.ChallengerAUC),
		Ffloat("margin", l.cfg.Margin),
	}})

	// The non-inferiority gate. A NaN challenger AUC never passes; a
	// missing champion always loses.
	pass := o.ChallengerAUC >= 0 && // NaN guard
		(l.champion == nil || o.ChallengerAUC >= o.ChampionAUC-l.cfg.Margin)
	if !pass {
		o.Reason = "inferior"
		l.mutateStats(func(s *Stats) { s.Rejections++ })
		l.emit(Event{Tick: l.t, Kind: EventReject, LSN: o.LSN, Fields: []Field{
			F("reason", o.Reason),
			Ffloat("challenger", o.ChallengerAUC),
			Ffloat("champion", o.ChampionAUC),
		}})
		return o
	}

	encoded, err := challenger.Encode()
	if err != nil {
		return l.skip(o, "encode_error")
	}
	sum := sha256.Sum256(encoded)
	o.ModelSHA = hex.EncodeToString(sum[:])
	if l.cfg.Promote != nil {
		if err := l.cfg.Promote(encoded, o); err != nil {
			// The side effect failed (reload rejected, daemon away):
			// the champion keeps serving. The error text is not logged
			// — it can carry nondeterministic detail (ports, paths).
			o.Reason = "promote_failed"
			l.mutateStats(func(s *Stats) { s.Rejections++ })
			l.emit(Event{Tick: l.t, Kind: EventReject, LSN: o.LSN, Fields: []Field{
				F("reason", o.Reason),
				Ffloat("challenger", o.ChallengerAUC),
				Ffloat("champion", o.ChampionAUC),
			}})
			return o
		}
	}
	o.Promoted = true
	l.champion = challenger
	l.mutateStats(func(s *Stats) { s.Promotions++ })
	l.emit(Event{Tick: l.t, Kind: EventPromote, LSN: o.LSN, Fields: []Field{
		Ffloat("challenger", o.ChallengerAUC),
		Ffloat("champion", o.ChampionAUC),
		F("sha256", o.ModelSHA[:12]),
	}})
	return o
}

// skip records a retrain attempt that could not produce a challenger.
func (l *Loop) skip(o Outcome, reason string) Outcome {
	o.Reason = reason
	l.mutateStats(func(s *Stats) { s.Skips++ })
	l.emit(Event{Tick: l.t, Kind: EventSkip, LSN: o.LSN, Fields: []Field{
		F("reason", reason),
		Fint("rows", int64(o.TrainRows)),
		Fint("pos", int64(o.TrainPos)),
		Fint("holdout_rows", int64(o.HoldoutRows)),
		Fint("holdout_pos", int64(o.HoldoutPos)),
	}})
	return o
}

package serve

import (
	"fmt"
	"math"
	"net/http"

	"ssdfail/internal/remedy"
	"ssdfail/internal/sparepool"
)

// remedyPlane is the serve-side face of the remediation control plane:
// the policy engine, its spare pool, and the evaluation counter wired
// into /metrics. The engine itself owns no clock — each POST
// /v1/remedy/evaluate is one tick, so the cadence (a cron, an operator,
// ssdremedy -live) lives outside the daemon and replays are exact.
type remedyPlane struct {
	engine *remedy.Engine
	pool   *sparepool.Pool
}

// initRemedy builds the plane and registers its metrics when
// cfg.RemedyPolicy is set.
func (s *Server) initRemedy() error {
	if s.cfg.RemedyPolicy == nil {
		return nil
	}
	pool, err := sparepool.NewPool(s.cfg.RemedySpares)
	if err != nil {
		return fmt.Errorf("serve: remedy spare pool: %w", err)
	}
	engine, err := remedy.NewEngine(*s.cfg.RemedyPolicy, pool, nil)
	if err != nil {
		return fmt.Errorf("serve: remedy engine: %w", err)
	}
	s.remedy = &remedyPlane{engine: engine, pool: pool}

	m := s.metrics
	stat := func(name, help string, get func(remedy.Stats) uint64) {
		m.NewCounterFunc("ssdremedy_"+name, help,
			func() uint64 { return get(engine.Stats()) })
	}
	stat("evaluations_total", "Remediation evaluation passes (ticks).",
		func(st remedy.Stats) uint64 { return st.Evaluations })
	stat("cordons_total", "Drives cordoned after sustained breach.",
		func(st remedy.Stats) uint64 { return st.Cordons })
	stat("uncordons_total", "Cordoned drives released after sustained recovery.",
		func(st remedy.Stats) uint64 { return st.Uncordons })
	stat("drain_starts_total", "Drains admitted under the per-model rate limit.",
		func(st remedy.Stats) uint64 { return st.DrainStarts })
	stat("swaps_total", "Drives swapped onto spares.",
		func(st remedy.Stats) uint64 { return st.Swaps })
	stat("failures_total", "Ground-truth drive failures reported.",
		func(st remedy.Stats) uint64 { return st.Failures })
	stat("data_losses_total", "Failures of drives not yet swapped.",
		func(st remedy.Stats) uint64 { return st.DataLosses })
	stat("prevented_losses_total", "Failures of drives already swapped in time.",
		func(st remedy.Stats) uint64 { return st.PreventedLosses })
	stat("rate_limited_ticks_total", "Drain admissions deferred by the per-model cap.",
		func(st remedy.Stats) uint64 { return st.RateLimitedTicks })
	stat("pool_exhausted_ticks_total", "Swap attempts deferred by an empty spare pool.",
		func(st remedy.Stats) uint64 { return st.PoolExhaustedTicks })
	for st := remedy.StateHealthy; st <= remedy.StateFailed; st++ {
		st := st
		m.NewGaugeFunc("ssdremedy_drives_"+st.String(),
			fmt.Sprintf("Drives currently in remediation state %q.", st),
			func() float64 { return float64(engine.StateCounts()[st]) })
	}
	m.NewGaugeFunc("ssdremedy_spares_free",
		"Spares on hand in the pool.",
		func() float64 { return float64(pool.Stats().Free) })
	m.NewGaugeFunc("ssdremedy_spares_in_use",
		"Spares allocated to swapped drives.",
		func() float64 { return float64(pool.Stats().InUse) })
	return nil
}

// remedyEnabled answers 409 (mirroring /v1/snapshot without a WAL) when
// the control plane is not configured.
func (s *Server) remedyEnabled(w http.ResponseWriter) bool {
	if s.remedy == nil {
		writeError(w, http.StatusConflict, "remediation disabled: daemon runs without a remedy policy")
		return false
	}
	return true
}

// eventJSON is the wire shape of one remediation decision.
type eventJSON struct {
	Tick   uint64  `json:"tick"`
	Action string  `json:"action"`
	Drive  uint32  `json:"drive_id"`
	Model  string  `json:"model"`
	Score  float64 `json:"score"`
	Spare  int     `json:"spare,omitempty"`
	Cost   float64 `json:"cost,omitempty"`
}

func toEventJSON(evs []remedy.Event) []eventJSON {
	out := make([]eventJSON, len(evs))
	for i, ev := range evs {
		out[i] = eventJSON{Tick: ev.Tick, Action: string(ev.Action),
			Drive: ev.Drive, Model: ev.Model.String(), Score: ev.Score,
			Spare: ev.Spare, Cost: ev.Cost}
	}
	return out
}

// handleRemedyEvaluate runs one policy tick: a fleet scoring pass over
// every drive (under the same concurrency bound as the watchlist, and
// through the same score column) feeds the engine,
// which cordons, drains, and swaps against the spare pool. The response
// carries the tick's decisions.
func (s *Server) handleRemedyEvaluate(w http.ResponseWriter, r *http.Request) {
	if !s.remedyEnabled(w) {
		return
	}
	pred, info, ok := s.registry.Current()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	if !s.acquire(w, "remedy_evaluate", s.scoreSem) {
		return
	}
	defer func() { <-s.scoreSem }()
	pass := make([]remedy.Score, 0, s.store.Len())
	s.sweep(pred, info, 0, math.Inf(-1), func(sc Scored) {
		pass = append(pass, remedy.Score{DriveID: sc.ID, Model: sc.Model, Score: sc.Score})
	})
	if r.Context().Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded during scoring")
		return
	}
	events, err := s.remedy.engine.Evaluate(pass, nil)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tick":          s.remedy.engine.Tick(),
		"model_version": info.Version,
		"fleet_size":    len(pass),
		"decisions":     toEventJSON(events),
	})
}

// handleRemedyStatus reports the engine's books: policy, tick, summary,
// per-model rate-limiter state, and the spare pool.
func (s *Server) handleRemedyStatus(w http.ResponseWriter, r *http.Request) {
	if !s.remedyEnabled(w) {
		return
	}
	engine := s.remedy.engine
	sum := engine.Summary()
	byModel := engine.ByModel()
	models := make([]map[string]any, len(byModel))
	for i, mc := range byModel {
		models[i] = map[string]any{
			"model":      mc.Model.String(),
			"registered": mc.Registered,
			"draining":   mc.Draining,
			"drain_cap":  mc.DrainCap,
		}
	}
	states := map[string]int{}
	for st := remedy.StateHealthy; st <= remedy.StateFailed; st++ {
		states[st.String()] = sum.ByState[st]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tick":            engine.Tick(),
		"policy":          engine.Policy(),
		"states":          states,
		"by_model":        models,
		"stats":           sum.Stats,
		"premature_swaps": sum.PrematureSwaps,
		"total_cost":      sum.TotalCost,
		"do_nothing_cost": sum.DoNothingCost,
		"savings":         sum.Savings,
		"pool":            s.remedy.pool.Stats(),
	})
}

// handleRemedyDrives lists every drive's remediation state, sorted by
// drive ID.
func (s *Server) handleRemedyDrives(w http.ResponseWriter, r *http.Request) {
	if !s.remedyEnabled(w) {
		return
	}
	drives := s.remedy.engine.Drives()
	type driveJSON struct {
		DriveID         uint32  `json:"drive_id"`
		Model           string  `json:"model"`
		State           string  `json:"state"`
		Score           float64 `json:"score"`
		Breaches        int     `json:"breaches"`
		Clears          int     `json:"clears"`
		Spare           int     `json:"spare,omitempty"`
		FailedAfterSwap bool    `json:"failed_after_swap,omitempty"`
	}
	out := make([]driveJSON, len(drives))
	for i, d := range drives {
		out[i] = driveJSON{DriveID: d.ID, Model: d.Model.String(),
			State: d.State.String(), Score: d.Score,
			Breaches: d.Breaches, Clears: d.Clears,
			Spare: d.Spare, FailedAfterSwap: d.FailedAfterSwap}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(out),
		"drives": out,
	})
}

// handleRemedyLog returns the most recent decisions from the in-memory
// ring, oldest first. ?n= bounds the count (0 or absent = everything
// retained).
func (s *Server) handleRemedyLog(w http.ResponseWriter, r *http.Request) {
	if !s.remedyEnabled(w) {
		return
	}
	n, err := queryInt(r, "n", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n < 0 {
		writeError(w, http.StatusBadRequest, "bad n: must be non-negative")
		return
	}
	log := s.remedy.engine.Log()
	events := log.Recent(n)
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  log.Total(),
		"count":  len(events),
		"events": toEventJSON(events),
	})
}

// remedyFailRequest is the body of POST /v1/remedy/fail: a ground-truth
// failure report for one drive.
type remedyFailRequest struct {
	DriveID uint32 `json:"drive_id"`
}

// handleRemedyFail records a ground-truth drive failure, closing the
// loop on cost accounting: a swapped drive's failure becomes a
// prevented loss, any other drive's a data loss.
func (s *Server) handleRemedyFail(w http.ResponseWriter, r *http.Request) {
	if !s.remedyEnabled(w) {
		return
	}
	var req remedyFailRequest
	if code, err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, code, err.Error())
		return
	}
	ev, err := s.remedy.engine.Fail(req.DriveID)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"event": toEventJSON([]remedy.Event{ev})[0],
	})
}

package fleetsim

import (
	"math"
	"sync"

	"ssdfail/internal/rng"
	"ssdfail/internal/trace"
)

// SymptomClass labels how a failure announces itself in the log.
type SymptomClass uint8

const (
	// Asymptomatic failures show no non-transparent errors and grow no
	// bad blocks over the drive's whole life (26% of failures, §4.2).
	Asymptomatic SymptomClass = iota
	// Moderate failures show a degradation signature in the final days.
	Moderate
	// Severe failures add orders-of-magnitude error bursts; infant
	// failures are strongly biased toward this behaviour (Figure 10).
	Severe
)

// FailureTruth records the simulator's ground truth for one failure, used
// by tests to validate the trace-only reconstruction in internal/failure.
type FailureTruth struct {
	FailDay      int32 // last day of operational activity
	SwapDay      int32 // physical swap day, or -1 if beyond the horizon
	ReturnDay    int32 // re-entry day after repair, or -1 if never observed
	AgeAtFailure int32
	Class        SymptomClass
}

// DriveTruth is the ground truth for one drive.
type DriveTruth struct {
	DriveID  uint32
	UEProne  bool
	Failures []FailureTruth
}

// driveState carries the latent per-drive factors and running counters.
type driveState struct {
	cfg *ModelConfig
	rng *rng.RNG

	activity float64 // per-drive workload factor
	errProne float64 // per-drive error-proneness factor
	ueProne  bool
	class    SymptomClass
	readOnly bool

	// Per-operational-period ramp parameters (young failures get
	// boosted symptoms, §5.3).
	ueRampProb float64
	corrBoost  float64

	pe        float64
	cumReads  uint64
	cumWrites uint64
	cumErases uint64
	cumErrors [trace.NumErrorKinds]uint64
	factoryBB uint32
	grownBB   uint32
}

// capU32 clamps a float64 count into the uint32 counter range.
func capU32(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 2e9 {
		return 2e9
	}
	return uint32(v)
}

// rampIntensity is the degradation intensity at `off` days before the
// failure (off = 0 is the failure day): ~1 on the last day, decaying
// with a ~1.8-day constant, so the signature concentrates in the final
// two days as the paper observes (Figure 11, Observation #11).
func rampIntensity(off int32) float64 {
	return math.Exp(-float64(off) / 1.8)
}

// expectedCumWrites approximates the drive's cumulative writes at the
// given age, used to estimate wear inside the failure hazard before the
// day-by-day workload is drawn.
func (st *driveState) expectedCumWrites(age int32) float64 {
	c := st.cfg
	a := float64(age)
	return c.WriteScale * st.activity *
		(a - c.YoungWriteDeficit*c.WriteRampDays*(1-math.Exp(-a/c.WriteRampDays)))
}

// hazardAt returns the per-day failure probability at the given age.
func (st *driveState) hazardAt(age int32) float64 {
	c := st.cfg
	peExp := st.expectedCumWrites(age) / c.WritesPerPECycle
	h := c.InfantHazard*math.Exp(-float64(age)/c.InfantDecayDays) +
		c.BaseHazard*(1+c.WearCoef*peExp/1500)
	if st.ueProne {
		h *= c.UEProneHazardMult
	}
	if c.ErrProneHazardExp > 0 {
		h *= math.Pow(st.errProne, c.ErrProneHazardExp)
	}
	if h > 0.5 {
		h = 0.5
	}
	return h
}

// sampleFailureDay walks the hazard forward from startDay and returns
// the day the drive fails, or horizon if it survives the trace.
func (st *driveState) sampleFailureDay(startDay, arrival, horizon int32) int32 {
	for d := startDay; d < horizon; d++ {
		if st.rng.Bernoulli(st.hazardAt(d - arrival)) {
			return d
		}
	}
	return horizon
}

// workload draws one day of read/write/erase activity for a drive of the
// given age. rampOff >= 0 marks a day inside the pre-failure window of a
// symptomatic failure; degradation suppresses throughput (the paper's
// mature-failure models lean on read/write counts, Figure 16).
func (st *driveState) workload(age, rampOff int32) (reads, writes, erases uint64) {
	c := st.cfg
	ramp := 1 - c.YoungWriteDeficit*math.Exp(-float64(age)/c.WriteRampDays)
	mu := c.WriteScale * st.activity * ramp
	// Occasional idle day on healthy drives, never on the failure day
	// itself (the failure day is by definition the last *active* day).
	if rampOff != 0 && st.rng.Bernoulli(0.01) {
		return 0, 0, 0
	}
	if rampOff >= 0 && st.class != Asymptomatic {
		mu *= 1 - c.WorkloadDipFrac*rampIntensity(rampOff)
	}
	w := mu * st.rng.LogNormal(-0.5*c.WriteSigma*c.WriteSigma, c.WriteSigma)
	rd := w * c.ReadsPerWrite * st.rng.LogNormal(-0.5*0.09, 0.3)
	return uint64(rd), uint64(w), uint64(w / c.WritesPerErase)
}

// errorsForDay draws the ten error counters for one day. wear is
// PE/3000; rampOff >= 0 marks a pre-failure day; sev scales burst sizes.
func (st *driveState) errorsForDay(writes uint64, wear float64, rampOff int32, sev float64) [trace.NumErrorKinds]uint32 {
	c := st.cfg
	r := st.rng
	var e [trace.NumErrorKinds]uint32

	inRamp := rampOff >= 0 && st.class != Asymptomatic
	intensity := 0.0
	if inRamp {
		intensity = rampIntensity(rampOff)
	}

	// Correctable errors: common, workload-driven, large counts; they
	// swell as the drive degrades (the dominant pre-failure signal —
	// most failed drives never see a UE at all, Observation #9).
	workFactor := float64(writes) / c.WriteScale
	if workFactor > 5 {
		workFactor = 5
	}
	if events := r.Poisson(c.CorrectableMean * (0.2 + workFactor)); events > 0 || inRamp {
		bits := float64(events) * r.LogNormal(math.Log(c.CorrectableScale), 1.5)
		if inRamp {
			bits = (bits + c.CorrectableScale) * (1 + st.corrBoost*intensity)
		}
		e[trace.ErrCorrectable] = capU32(bits)
	}

	// Non-transparent and remaining transparent errors are suppressed
	// entirely for asymptomatic-class drives.
	if st.class == Asymptomatic {
		return e
	}

	pUE := c.UEBaseDayProb * st.errProne
	if st.ueProne {
		pUE = c.UEProneDayProb * st.errProne
	}
	if inRamp {
		pUE += st.ueRampProb * intensity
	}
	if r.Bernoulli(pUE) {
		burst := r.Pareto(1, 1.1)
		if inRamp {
			burst += r.Pareto(c.RampUEBurstMin, c.RampUEBurstAlpha) * sev * (0.2 + intensity)
		}
		e[trace.ErrUncorrectable] = capU32(burst)
		if r.Bernoulli(c.FinalReadGivenUE) {
			fr := float64(e[trace.ErrUncorrectable]) * c.FinalReadRatio
			if fr < 1 {
				fr = 1
			}
			e[trace.ErrFinalRead] = capU32(fr)
		}
	}
	if r.Bernoulli((c.EraseErrBase + c.EraseErrWear*wear) * st.errProne) {
		e[trace.ErrErase] = capU32(1 + float64(r.Poisson(1.0)))
	}
	if r.Bernoulli(c.WriteErrDayProb * st.errProne) {
		e[trace.ErrWrite] = capU32(1 + float64(r.Poisson(0.8)))
	}
	if r.Bernoulli(c.ReadErrDayProb * st.errProne) {
		e[trace.ErrRead] = capU32(1 + float64(r.Poisson(0.8)))
	}
	if r.Bernoulli(c.MetaDayProb * st.errProne) {
		e[trace.ErrMeta] = capU32(1 + float64(r.Poisson(0.3)))
	}
	if r.Bernoulli(c.ResponseDayProb * st.errProne) {
		e[trace.ErrResponse] = capU32(1 + float64(r.Poisson(0.3)))
	}
	if r.Bernoulli(c.TimeoutDayProb * st.errProne) {
		e[trace.ErrTimeout] = capU32(1 + float64(r.Poisson(0.3)))
	}
	if r.Bernoulli(c.FinalWriteDayProb * st.errProne) {
		e[trace.ErrFinalWrite] = capU32(1 + float64(r.Poisson(0.3)))
	}
	return e
}

// growBadBlocks updates the grown bad-block counter from the day's
// error counts.
func (st *driveState) growBadBlocks(e *[trace.NumErrorKinds]uint32) {
	if st.class == Asymptomatic {
		return
	}
	c := st.cfg
	events := uint64(e[trace.ErrErase]) + uint64(e[trace.ErrUncorrectable])
	if events > 500 {
		events = 500
	}
	grown := st.rng.Binomial(events, c.GrownPerErrorProb)
	if st.rng.Bernoulli(c.GrownBackgroundProb * st.errProne) {
		grown++
	}
	if grown > 0 {
		st.grownBB += uint32(grown)
	}
}

// dayBufs holds per-goroutine scratch for simulateDrive: a drive's
// reports are appended into a reused buffer and copied out once, at
// their final length, so the fleet holds no spare capacity.
var dayBufs = sync.Pool{New: func() any { return new([]trace.DayRecord) }}

// simulateDrive generates the full observational record and ground truth
// for one drive. The RNG must be exclusive to this drive. Days holds
// exactly the drive's reports (cap == len), and stays nil when the drive
// never reports.
func simulateDrive(fc *FleetConfig, cfg *ModelConfig, id uint32, rng *rng.RNG) (trace.Drive, DriveTruth) {
	buf := dayBufs.Get().(*[]trace.DayRecord)
	days := (*buf)[:0]
	st := &driveState{cfg: cfg, rng: rng}
	st.activity = rng.LogNormal(0, cfg.ActivitySigma)
	st.errProne = rng.LogNormal(0, cfg.ErrorProneSigma)
	st.factoryBB = uint32(rng.Poisson(cfg.FactoryBadBlockMean))
	// Symptom class is a latent property of the drive (manufacturing
	// defects either corrupt data paths progressively or kill the
	// device silently).
	if rng.Bernoulli(cfg.AsymptomaticProb) {
		st.class = Asymptomatic
	} else if rng.Bernoulli(cfg.SevereProb) {
		st.class = Severe
	} else {
		st.class = Moderate
	}
	if st.class != Asymptomatic {
		st.ueProne = rng.Bernoulli(cfg.UEProneProb)
	}

	var arrival int32
	if rng.Bernoulli(fc.EarlyFrac) {
		arrival = int32(rng.Intn(int(fc.EarlyWindow)))
	} else {
		arrival = fc.EarlyWindow + int32(rng.Intn(int(fc.HorizonDays-60-fc.EarlyWindow)))
	}

	d := trace.Drive{ID: id, Model: cfg.Model}
	truth := DriveTruth{DriveID: id, UEProne: st.ueProne}

	day := arrival
	for day < fc.HorizonDays {
		// One operational period: pre-sample when it ends in failure.
		failDay := st.sampleFailureDay(day, arrival, fc.HorizonDays)
		failAge := failDay - arrival
		rampLen := int32(0)
		sev := 1.0
		st.ueRampProb = cfg.RampUEDayProb
		st.corrBoost = cfg.CorrRampBoost
		readOnlyProb := cfg.ReadOnlyProb
		rampMean := cfg.RampMeanDays
		if failDay < fc.HorizonDays && st.class != Asymptomatic {
			if failAge <= 90 && cfg.YoungSymptomBoost > 1 {
				// Infant failures announce themselves earlier and
				// louder (§5.3 / Figure 15).
				st.ueRampProb *= cfg.YoungSymptomBoost
				if st.ueRampProb > 0.6 {
					st.ueRampProb = 0.6
				}
				st.corrBoost *= cfg.YoungSymptomBoost
				readOnlyProb *= cfg.YoungSymptomBoost
				if readOnlyProb > 0.6 {
					readOnlyProb = 0.6
				}
				rampMean *= 1.5
			}
			rampLen = 1 + int32(rng.Geometric(1/rampMean))
			if rampLen > 14 {
				rampLen = 14
			}
			if st.class == Severe {
				sev = 10
			}
			if failAge <= 90 {
				sev *= cfg.YoungSeverityMult
			}
		}
		readOnlyFrom := int32(math.MaxInt32)
		if rampLen > 0 && rng.Bernoulli(readOnlyProb) {
			readOnlyFrom = failDay - int32(rng.Intn(int(rampLen)))
		}

		for ; day < fc.HorizonDays && day <= failDay; day++ {
			age := day - arrival
			rampOff := int32(-1)
			if failDay < fc.HorizonDays && failDay-day < rampLen {
				rampOff = failDay - day
			}
			reads, writes, erases := st.workload(age, rampOff)
			st.pe += float64(writes) / cfg.WritesPerPECycle
			st.cumReads += reads
			st.cumWrites += writes
			st.cumErases += erases
			errs := st.errorsForDay(writes, st.pe/3000, rampOff, sev)
			st.growBadBlocks(&errs)
			for k := 0; k < trace.NumErrorKinds; k++ {
				st.cumErrors[k] += uint64(errs[k])
			}
			if day >= readOnlyFrom {
				st.readOnly = true
			}
			if rng.Bernoulli(cfg.ReportProb) || day == failDay {
				days = append(days, st.record(day, age, reads, writes, erases, errs))
			}
		}
		if failDay >= fc.HorizonDays {
			break // survived the trace
		}

		// --- Failure at failDay (the last day of operational activity). ---
		ft := FailureTruth{FailDay: failDay, AgeAtFailure: failAge, Class: st.class,
			SwapDay: -1, ReturnDay: -1}

		// Post-failure pipeline: optional soft-removal inactivity
		// reports, optional reporting up to the swap, then the swap
		// itself and the repair process.
		nonOp := st.nonOpLength()
		swapDay := failDay + nonOp
		inactDays := int32(0)
		if rng.Bernoulli(cfg.InactivityProb) {
			inactDays = 1 + int32(rng.Geometric(1/cfg.InactivityMean))
		}
		reportUntil := failDay + inactDays
		if !rng.Bernoulli(cfg.NonReportProb) {
			reportUntil = swapDay // keeps reporting dead days until the swap
		}
		for dd := failDay + 1; dd <= reportUntil && dd < fc.HorizonDays && dd < swapDay; dd++ {
			if rng.Bernoulli(cfg.ReportProb) {
				rec := st.record(dd, dd-arrival, 0, 0, 0, [trace.NumErrorKinds]uint32{})
				rec.Dead = true
				days = append(days, rec)
			}
		}

		if swapDay >= fc.HorizonDays {
			// Swap falls beyond the trace: the failure is right-censored
			// and invisible to trace-only analysis, as in the real log.
			truth.Failures = append(truth.Failures, ft)
			break
		}
		ft.SwapDay = swapDay
		d.Swaps = append(d.Swaps, trace.SwapEvent{Day: swapDay})

		if rng.Bernoulli(cfg.NeverReturnProb) {
			truth.Failures = append(truth.Failures, ft)
			break
		}
		repair := int32(math.Ceil(rng.LogNormal(cfg.RepairLogMuDays, cfg.RepairLogSigma)))
		if repair < 1 {
			repair = 1
		}
		returnDay := swapDay + repair
		if returnDay >= fc.HorizonDays-1 {
			truth.Failures = append(truth.Failures, ft)
			break
		}
		ft.ReturnDay = returnDay
		truth.Failures = append(truth.Failures, ft)

		// The drive re-enters the field repaired: symptoms reset, wear
		// and lifetime counters persist (the drive-lifetime clock keeps
		// running through the repair, as the paper's timestamps do).
		st.readOnly = false
		day = returnDay
	}

	if len(days) > 0 {
		d.Days = make([]trace.DayRecord, len(days))
		copy(d.Days, days)
	}
	*buf = days
	dayBufs.Put(buf)
	return d, truth
}

// record materializes one DayRecord from the current state.
func (st *driveState) record(day, age int32, reads, writes, erases uint64, errs [trace.NumErrorKinds]uint32) trace.DayRecord {
	rec := trace.DayRecord{
		Day: day, Age: age,
		Reads: reads, Writes: writes, Erases: erases,
		CumReads: st.cumReads, CumWrites: st.cumWrites, CumErases: st.cumErases,
		PECycles:         st.pe,
		FactoryBadBlocks: st.factoryBB,
		GrownBadBlocks:   st.grownBB,
		Errors:           errs,
		ReadOnly:         st.readOnly,
	}
	rec.CumErrors = st.cumErrors
	return rec
}

// nonOpLength draws the length of the non-operational period between the
// failure and the physical swap (Figure 4's mixture: ~20% within a day,
// ~80% within a week, a long lognormal tail beyond).
func (st *driveState) nonOpLength() int32 {
	c := st.cfg
	u := st.rng.Float64()
	switch {
	case u < c.SwapWithin1Prob:
		return 1
	case u < c.SwapWithin1Prob+c.SwapWeekProb:
		return 2 + int32(st.rng.Intn(6))
	default:
		tail := st.rng.LogNormal(c.SwapTailLogMu, c.SwapTailLogSigma)
		if tail > 600 {
			tail = 600
		}
		return 8 + int32(tail)
	}
}

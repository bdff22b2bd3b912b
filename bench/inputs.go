// Package bench is the repository's benchmark: four seeded workloads
// that drive the real ssdserved and ssdrouter binaries (and the
// training grid in-process), check their outputs against reference
// computations, and report end-to-end metrics plus — in a separate
// traced pass — per-layer metrics timed from outside each package's
// public API. See README.md in this directory for what every metric
// means and which layer should move which number.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

// Base fleet and served-model sizing shared by the three serve
// workloads. Larger fleets are clones of the base fleet's drives on
// disjoint ID ranges, so fleet size scales without re-simulating.
const (
	BaseDrivesPerModel = 400
	BaseHorizonDays    = 400
	ModelTrees         = 50
	ModelLookahead     = 3
	// cloneStride separates clone ID ranges; it exceeds the base
	// fleet's largest drive ID (3 × BaseDrivesPerModel).
	cloneStride = 1 << 12
	// modelFleetSeed is the benchmark seed whose base fleet the served
	// model is trained on, whatever seed the run was given. The forest's
	// size and depth follow its training data, and a watchlist's cost
	// follows the forest: with the model trained on each run's own fleet,
	// fleet_scan's latency differed by 25% between seeds on an otherwise
	// quiet host, which is more than the bound a regression has to show
	// through. The seed still decides every record the daemons are sent.
	modelFleetSeed = 1
)

// subSeed derives an independent seed for one named use from the
// benchmark seed, with the grid's own key-derivation function.
func subSeed(seed uint64, use string) uint64 {
	return expgrid.DeriveSeed(seed, "ssdbench/"+use)
}

// Inputs are the seeded artifacts every serve workload starts from: the
// base fleet, its failure reconstruction, and the served model on disk.
type Inputs struct {
	Seed      uint64
	Fleet     *trace.Fleet
	Study     *core.Study
	ModelPath string

	GenerateS float64 // fleetsim.Generate
	AnalyzeS  float64 // failure.Analyze
	TrainS    float64 // reference fleet + core.Study.TrainPredictor + Save
}

// baseFleet simulates the base fleet for a benchmark seed.
func baseFleet(seed uint64) (*trace.Fleet, error) {
	fc := fleetsim.DefaultConfig(subSeed(seed, "fleet"), BaseDrivesPerModel)
	fc.HorizonDays = BaseHorizonDays
	fc.EarlyWindow = (fc.HorizonDays - 60) / 3
	fleet, _, err := fleetsim.Generate(fc)
	if err != nil {
		return nil, fmt.Errorf("bench: generating base fleet: %w", err)
	}
	return fleet, nil
}

// BuildInputs simulates the seed's base fleet, and trains the served
// forest on the reference fleet (see modelFleetSeed) and saves it into
// dir.
func BuildInputs(seed uint64, dir string) (*Inputs, error) {
	in := &Inputs{Seed: seed, ModelPath: filepath.Join(dir, "model.bin")}
	t0 := time.Now()
	fleet, err := baseFleet(seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	in.Fleet = fleet
	in.Study = &core.Study{Fleet: fleet, Analysis: failure.Analyze(fleet)}
	t2 := time.Now()
	trainOn := in.Study
	if seed != modelFleetSeed {
		ref, err := baseFleet(modelFleetSeed)
		if err != nil {
			return nil, err
		}
		trainOn = core.NewStudy(ref)
	}

	fcfg := forest.DefaultConfig()
	fcfg.Trees = ModelTrees
	fcfg.Seed = subSeed(modelFleetSeed, "model")
	pred, err := trainOn.TrainPredictor(core.PredictorOptions{
		Lookahead: ModelLookahead,
		Factory:   forest.NewFactory(fcfg),
		Seed:      fcfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: training served model: %w", err)
	}
	if err := pred.Save(in.ModelPath); err != nil {
		return nil, fmt.Errorf("bench: saving served model: %w", err)
	}
	in.GenerateS = t1.Sub(t0).Seconds()
	in.AnalyzeS = t2.Sub(t1).Seconds()
	in.TrainS = time.Since(t2).Seconds()
	return in, nil
}

// Rec is one scheduled report: the bench's own copy of what it sends,
// kept so outputs can be checked against it. Clones share the base
// drive's DayRecord.
type Rec struct {
	ID    uint32
	Model trace.Model
	Day   *trace.DayRecord
}

// DayMajor lists the reports of clones [cloneLo, cloneHi) of the base
// fleet for fleet days [dayLo, dayHi], day-major: every drive reports
// day d before any reports d+1, the shape real telemetry has. Within a
// day the order is clone-major, then base-fleet order.
func DayMajor(f *trace.Fleet, cloneLo, cloneHi int, dayLo, dayHi int32) []Rec {
	var out []Rec
	cursor := make([]int, len(f.Drives))
	for i := range f.Drives {
		cursor[i] = f.Drives[i].LastRecordBefore(dayLo) + 1
	}
	for day := dayLo; day <= dayHi; day++ {
		var today []int // base drives reporting this day
		for i := range f.Drives {
			d := &f.Drives[i]
			if c := cursor[i]; c < len(d.Days) && d.Days[c].Day == day {
				today = append(today, i)
				cursor[i]++
			}
		}
		for c := cloneLo; c < cloneHi; c++ {
			for _, i := range today {
				d := &f.Drives[i]
				out = append(out, Rec{
					ID:    uint32(c)*cloneStride + d.ID,
					Model: d.Model,
					Day:   &d.Days[cursor[i]-1],
				})
			}
		}
	}
	return out
}

// Schedule is a pre-encoded request sequence: one body per batch, the
// records each body carries, and the SHA-256 of all bodies in order.
type Schedule struct {
	Recs   []Rec
	Bodies [][]byte
	Starts []int // Starts[i] is the index in Recs of body i's first record; len(Bodies)+1 entries
	SHA256 string
}

// batchBounds fills Starts for n records in batches of size batch.
func batchBounds(n, batch int) []int {
	starts := make([]int, 0, n/batch+2)
	for lo := 0; lo < n; lo += batch {
		starts = append(starts, lo)
	}
	return append(starts, n)
}

// EncodeBin frames recs as POST /v1/ingest/bin bodies of batch records.
func EncodeBin(recs []Rec, batch int) *Schedule {
	s := &Schedule{Recs: recs, Starts: batchBounds(len(recs), batch)}
	nb := len(s.Starts) - 1
	buf := make([]byte, 0, nb*serve.BinHeaderSize+len(recs)*serve.BinFrameSize)
	h := sha256.New()
	for b := 0; b < nb; b++ {
		lo, hi := s.Starts[b], s.Starts[b+1]
		start := len(buf)
		buf = serve.AppendBinHeader(buf, hi-lo)
		for _, r := range recs[lo:hi] {
			buf = serve.AppendBinRecord(buf, r.ID, r.Model, r.Day)
		}
		body := buf[start:len(buf):len(buf)]
		s.Bodies = append(s.Bodies, body)
		h.Write(body)
	}
	s.SHA256 = hex.EncodeToString(h.Sum(nil))
	return s
}

// EncodeJSON renders recs as POST /v1/ingest/batch bodies of batch
// records.
func EncodeJSON(recs []Rec, batch int) (*Schedule, error) {
	s := &Schedule{Recs: recs, Starts: batchBounds(len(recs), batch)}
	h := sha256.New()
	wire := make([]serve.IngestRecord, 0, batch)
	for b := 0; b+1 < len(s.Starts); b++ {
		wire = wire[:0]
		for _, r := range recs[s.Starts[b]:s.Starts[b+1]] {
			wire = append(wire, serve.WireRecord(r.ID, r.Model, r.Day))
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, fmt.Errorf("bench: encoding JSON batch %d: %w", b, err)
		}
		s.Bodies = append(s.Bodies, body)
		h.Write(body)
	}
	s.SHA256 = hex.EncodeToString(h.Sum(nil))
	return s, nil
}

// Sent summarises the prefix of a schedule that was actually sent:
// distinct drives, and each drive's last two reports — the bench's own
// copy of the state the daemon should now hold.
type Sent struct {
	Records int
	Last    map[uint32][2]*trace.DayRecord // [prev, last]; prev nil for a single report
	Model   map[uint32]trace.Model
}

// NewSent returns an empty summary.
func NewSent() *Sent {
	return &Sent{Last: make(map[uint32][2]*trace.DayRecord), Model: make(map[uint32]trace.Model)}
}

// Add folds recs, in send order, into the summary.
func (s *Sent) Add(recs []Rec) {
	for _, r := range recs {
		cur := s.Last[r.ID]
		s.Last[r.ID] = [2]*trace.DayRecord{cur[1], r.Day}
		s.Model[r.ID] = r.Model
	}
	s.Records += len(recs)
}

// Drives is the number of distinct drives sent so far.
func (s *Sent) Drives() int { return len(s.Last) }

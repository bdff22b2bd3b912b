package loadgen

import (
	"encoding/json"
	"testing"
	"time"

	"ssdfail/internal/trace"
)

func testConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.DrivesPerModel = 6
	cfg.HorizonDays = 120
	cfg.Days = 10
	cfg.Streams = 3
	cfg.BatchSize = 8
	return cfg
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same config, different hashes:\n%s\n%s", a.Hash, b.Hash)
	}
	if a.TotalRequests != b.TotalRequests || a.TotalRecords != b.TotalRecords {
		t.Fatalf("same config, different totals: %d/%d vs %d/%d",
			a.TotalRequests, a.TotalRecords, b.TotalRequests, b.TotalRecords)
	}
	// The hash covers bodies: spot-check full op equality too.
	for s := range a.Streams {
		if len(a.Streams[s].Ops) != len(b.Streams[s].Ops) {
			t.Fatalf("stream %d: %d vs %d ops", s, len(a.Streams[s].Ops), len(b.Streams[s].Ops))
		}
		for i := range a.Streams[s].Ops {
			oa, ob := &a.Streams[s].Ops[i], &b.Streams[s].Ops[i]
			if oa.Kind != ob.Kind || oa.At != ob.At || oa.Path != ob.Path || string(oa.Body) != string(ob.Body) {
				t.Fatalf("stream %d op %d differs", s, i)
			}
		}
	}

	c, err := Build(testConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBuildHashCoversArrivals(t *testing.T) {
	closed, err := Build(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	openCfg := testConfig(42)
	openCfg.Mode = ModeOpen
	open, err := Build(openCfg)
	if err != nil {
		t.Fatal(err)
	}
	if open.Hash == closed.Hash {
		t.Fatal("open-loop arrival offsets did not change the schedule hash")
	}
	// Open-loop arrivals must be strictly positive and non-decreasing
	// within each stream.
	for s := range open.Streams {
		var prev time.Duration
		for i, op := range open.Streams[s].Ops {
			if op.At <= prev {
				t.Fatalf("stream %d op %d: arrival %v not after %v", s, i, op.At, prev)
			}
			prev = op.At
		}
	}
}

// TestBuildPreservesPerDriveOrder decodes every scheduled batch and
// checks the property the daemon's store enforces: within a stream, a
// drive's records appear in strictly increasing day order, and no drive
// appears in more than one stream.
func TestBuildPreservesPerDriveOrder(t *testing.T) {
	sched, err := Build(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Drives) == 0 {
		t.Fatal("schedule replays no drives")
	}
	owner := make(map[uint32]int)
	lastDay := make(map[uint32]int32)
	records := make(map[uint32]int)
	reloads := 0
	for s := range sched.Streams {
		for _, op := range sched.Streams[s].Ops {
			switch op.Kind {
			case OpReload:
				reloads++
			case OpIngestBatch:
				var batch []trace.IngestRecord
				if err := json.Unmarshal(op.Body, &batch); err != nil {
					t.Fatalf("stream %d: bad batch body: %v", s, err)
				}
				if len(batch) != op.Records {
					t.Fatalf("op.Records = %d, body has %d", op.Records, len(batch))
				}
				for _, ir := range batch {
					if prev, ok := owner[ir.DriveID]; ok && prev != s {
						t.Fatalf("drive %d appears in streams %d and %d", ir.DriveID, prev, s)
					}
					owner[ir.DriveID] = s
					if last, ok := lastDay[ir.DriveID]; ok && ir.Day <= last {
						t.Fatalf("drive %d: day %d scheduled after day %d", ir.DriveID, ir.Day, last)
					}
					lastDay[ir.DriveID] = ir.Day
					records[ir.DriveID]++
				}
			}
		}
	}
	if reloads != sched.Reloads || reloads != 1 {
		t.Fatalf("reload ops = %d, sched.Reloads = %d, want 1", reloads, sched.Reloads)
	}
	// The ground-truth table must agree with what was actually laid out.
	for id, want := range sched.Drives {
		if records[id] != want.Records {
			t.Errorf("drive %d: %d records scheduled, expect table says %d", id, records[id], want.Records)
		}
		if lastDay[id] != want.LastDay {
			t.Errorf("drive %d: last scheduled day %d, expect table says %d", id, lastDay[id], want.LastDay)
		}
	}
	for id := range records {
		if _, ok := sched.Drives[id]; !ok {
			t.Errorf("drive %d scheduled but missing from expect table", id)
		}
	}
}

// TestBuildRemedyCadence checks the remediation-tick hook: ticks land
// only on stream 0, at the configured batch cadence, are counted in
// RemedyTicks, and change the schedule hash.
func TestBuildRemedyCadence(t *testing.T) {
	plain, err := Build(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(42)
	cfg.RemedyEvery = 2
	sched, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Hash == plain.Hash {
		t.Fatal("remedy ticks did not change the schedule hash")
	}
	ticks := 0
	for s := range sched.Streams {
		batches := 0
		for _, op := range sched.Streams[s].Ops {
			switch op.Kind {
			case OpIngestBatch:
				batches++
			case OpRemedyEvaluate:
				if s != 0 {
					t.Fatalf("remedy tick on stream %d, want only stream 0", s)
				}
				if op.Kind.Method() != "POST" || op.Path != "/v1/remedy/evaluate" {
					t.Fatalf("remedy op = %+v", op)
				}
				if batches == 0 || batches%cfg.RemedyEvery != 0 {
					t.Fatalf("remedy tick after %d batches, want a multiple of %d", batches, cfg.RemedyEvery)
				}
				ticks++
			}
		}
	}
	if ticks == 0 || ticks != sched.RemedyTicks {
		t.Fatalf("ticks laid out = %d, sched.RemedyTicks = %d, want equal and nonzero", ticks, sched.RemedyTicks)
	}
	// Everything else is unchanged: remedy ticks add requests but no
	// records.
	if sched.TotalRecords != plain.TotalRecords {
		t.Fatalf("records = %d, want %d", sched.TotalRecords, plain.TotalRecords)
	}
	if sched.TotalRequests != plain.TotalRequests+ticks {
		t.Fatalf("requests = %d, want %d + %d ticks", sched.TotalRequests, plain.TotalRequests, ticks)
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	cfg := testConfig(1)
	cfg.Mode = "sideways"
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown mode accepted")
	}
	cfg = testConfig(1)
	cfg.HorizonDays = 89
	if _, err := Build(cfg); err == nil {
		t.Fatal("sub-90-day horizon accepted")
	}
}

// TestBuildDriftCohort pins the drift-injection schedule: the cohort
// lives on a disjoint ID range, its records begin exactly at the
// DriftAfterFrac point of the replay window, the base fleet's replay is
// untouched, and drift-free configs keep their schedule hash.
func TestBuildDriftCohort(t *testing.T) {
	base := testConfig(42)
	plain, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}

	drifted := base
	drifted.DriftWriteMult = 8
	drifted.DriftAfterFrac = 0.5
	drifted.DriftDrivesPerModel = 4
	sched, err := Build(drifted)
	if err != nil {
		t.Fatal(err)
	}

	driftStart := drifted.HorizonDays - drifted.Days + int32(0.5*float64(drifted.Days))
	var cohort, baseDrives int
	for id, exp := range sched.Drives {
		if id >= DriftIDOffset {
			cohort++
			if exp.LastDay < driftStart {
				t.Fatalf("cohort drive %d last day %d, before drift start %d", id, exp.LastDay, driftStart)
			}
			continue
		}
		baseDrives++
		// The base fleet's expected end state is identical with and
		// without the cohort.
		if want, ok := plain.Drives[id]; !ok || want != exp {
			t.Fatalf("base drive %d end state changed by drift cohort: %+v vs %+v", id, exp, want)
		}
	}
	if cohort == 0 {
		t.Fatal("no drift cohort drives scheduled")
	}
	if baseDrives != len(plain.Drives) {
		t.Fatalf("base fleet shrank: %d vs %d drives", baseDrives, len(plain.Drives))
	}

	// Cohort records never predate the drift start. Decode every JSON
	// ingest batch and check the cohort IDs' days.
	for s := range sched.Streams {
		for _, op := range sched.Streams[s].Ops {
			if op.Kind != OpIngestBatch {
				continue
			}
			var batch []trace.IngestRecord
			if err := json.Unmarshal(op.Body, &batch); err != nil {
				t.Fatal(err)
			}
			for _, r := range batch {
				if r.DriveID >= DriftIDOffset && r.Day < driftStart {
					t.Fatalf("cohort record for drive %d at day %d, before drift start %d", r.DriveID, r.Day, driftStart)
				}
			}
		}
	}

	// Drift changes the schedule (and so its hash); determinism holds
	// per config; drift-free builds are unaffected by the new fields.
	if sched.Hash == plain.Hash {
		t.Fatal("drift cohort left the schedule hash unchanged")
	}
	again, err := Build(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash != sched.Hash {
		t.Fatal("drifted schedule not deterministic")
	}

	bad := base
	bad.DriftWriteMult = -1
	if _, err := Build(bad); err == nil {
		t.Fatal("negative drift multiplier accepted")
	}
	bad = base
	bad.HazardMult = -2
	if _, err := Build(bad); err == nil {
		t.Fatal("negative hazard multiplier accepted")
	}
}

// TestBuildHazardMult: raising the hazard changes the replayed fleet
// (more failures, fewer surviving records) but stays deterministic,
// and the neutral values 0 and 1 build identical schedules.
func TestBuildHazardMult(t *testing.T) {
	base := testConfig(42)
	plain, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	neutral := base
	neutral.HazardMult = 1
	same, err := Build(neutral)
	if err != nil {
		t.Fatal(err)
	}
	if same.Hash != plain.Hash {
		t.Fatal("HazardMult 1 changed the schedule")
	}
	boosted := base
	boosted.HazardMult = 50
	hot, err := Build(boosted)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Hash == plain.Hash {
		t.Fatal("HazardMult 50 left the fleet unchanged")
	}
	hot2, err := Build(boosted)
	if err != nil {
		t.Fatal(err)
	}
	if hot2.Hash != hot.Hash {
		t.Fatal("boosted schedule not deterministic")
	}
}

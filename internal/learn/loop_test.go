package learn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eventlog"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/model"
	"ssdfail/internal/trace"
)

// testConfig is the shared unit-test loop configuration: small windows
// so drift resolves quickly, an alpha far below anything a stationary
// stream can reach (at window 128 the KS p-value for identical
// distributions essentially never dips under 1e-6), and a forest small
// enough to train in milliseconds.
func testConfig() Config {
	return Config{
		Seed:         42,
		Trees:        10,
		Window:       128,
		CheckEvery:   64,
		Alpha:        1e-9,
		ObserveEvery: -1,
	}
}

// driftStream is the canonical test stream: 48 drives over 120 days
// with the write-volume shift injected at day 100.
func driftStream() []streamRec {
	return synthStream(synthConfig{drives: 48, days: 120, shiftDay: 100, shiftMult: 8, seed: 7})
}

// steadyStream is the same fleet with no shift.
func steadyStream() []streamRec {
	return synthStream(synthConfig{drives: 48, days: 120, shiftDay: -1, seed: 7})
}

func TestSynthesizeSwaps(t *testing.T) {
	rec := func(day int32, dead bool) trace.DayRecord {
		return trace.DayRecord{Day: day, Reads: 1, Dead: dead}
	}
	cases := []struct {
		name     string
		recs     []trace.DayRecord
		frontier int32
		want     []int32 // swap days
	}{
		{"healthy", []trace.DayRecord{rec(0, false), rec(1, false)}, 1, nil},
		{"trailing dead", []trace.DayRecord{rec(0, false), rec(1, true)}, 30, []int32{2}},
		{"trailing silence", []trace.DayRecord{rec(0, false), rec(1, false)}, 30, []int32{2}},
		{"censored silence", []trace.DayRecord{rec(0, false), rec(10, false)}, 20, nil},
		{"mid-stream gap", []trace.DayRecord{rec(0, false), rec(40, false), rec(41, false)}, 41, []int32{1}},
		{"dead then return", []trace.DayRecord{rec(0, false), rec(1, true), rec(3, false)}, 3, []int32{2}},
		{"two failures", []trace.DayRecord{rec(0, false), rec(40, false), rec(41, true)}, 60, []int32{1, 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			swaps := synthesizeSwaps(tc.recs, tc.frontier, 14)
			var got []int32
			for _, s := range swaps {
				got = append(got, s.Day)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("swaps %v, want %v", got, tc.want)
			}
		})
	}
}

func TestFleetStateDropsNonIncreasingDays(t *testing.T) {
	s := newFleetState()
	r := trace.DayRecord{Day: 5, Reads: 1}
	if !s.add(1, trace.MLCA, r) {
		t.Fatal("first record rejected")
	}
	if s.add(1, trace.MLCA, r) {
		t.Fatal("duplicate day accepted")
	}
	if s.add(1, trace.MLCA, trace.DayRecord{Day: 4}) {
		t.Fatal("regressing day accepted")
	}
	if s.records != 1 || s.frontier != 5 {
		t.Fatalf("records=%d frontier=%d after dedup", s.records, s.frontier)
	}
}

func TestEventCanonicalEncoding(t *testing.T) {
	e := Event{Tick: 4096, Kind: EventDrift, LSN: 4100, Fields: []Field{
		F("channel", "writes"),
		Ffloat("d", 0.5),
		Ffloat("p", 1.25e-10),
		Fint("n", -3),
		Fuint("seed", 18446744073709551615),
	}}
	want := "t=4096 event=drift lsn=4100 channel=writes d=0.5 p=1.25e-10 n=-3 seed=18446744073709551615"
	if got := e.String(); got != want {
		t.Fatalf("encoding\n got %q\nwant %q", got, want)
	}
	// NaN renders canonically too (champion AUC before any champion).
	if got := eventlog.Float(math.NaN()); got != "NaN" {
		t.Fatalf("NaN rendered %q", got)
	}
}

// TestEventLogRingAndSink checks the trainer's decision log as the
// loop builds it: the shared ring keeps the newest DefaultRingCap
// events, and the sink gets every event's canonical line.
func TestEventLogRingAndSink(t *testing.T) {
	var sink bytes.Buffer
	l := eventlog.New[Event](&sink)
	const n = eventlog.DefaultRingCap + 2
	for i := 1; i <= n; i++ {
		l.Append(Event{Tick: uint64(i), Kind: EventObserve})
	}
	if l.Total() != n {
		t.Fatalf("total %d, want %d", l.Total(), n)
	}
	recent := l.Recent(0)
	if len(recent) != eventlog.DefaultRingCap || recent[0].Tick != 3 || recent[eventlog.DefaultRingCap-1].Tick != n {
		t.Fatalf("ring kept %d events from tick %d, want ticks 3..%d", len(recent), recent[0].Tick, n)
	}
	if got := strings.Count(sink.String(), "\n"); got != n {
		t.Fatalf("sink got %d lines, want %d", got, n)
	}
	if first, want := strings.SplitN(sink.String(), "\n", 2)[0], (Event{Tick: 1, Kind: EventObserve}).String(); first != want {
		t.Fatalf("sink line 0 = %q, want %q", first, want)
	}

	failing := eventlog.New[Event](failWriter{})
	failing.Append(Event{Tick: 1, Kind: EventObserve})
	if failing.Err() == nil {
		t.Fatal("sink error not latched")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink down") }

// TestDriftDetectRetrainPromote closes the loop on the synthetic
// stream: a stationary prefix must trigger nothing, the injected
// write-volume shift must trip the KS check, and the resulting retrain
// must promote a first challenger whose published bytes hash to the
// SHA the promote event records.
func TestDriftDetectRetrainPromote(t *testing.T) {
	recs := driftStream()
	var published []byte
	cfg := testConfig()
	cfg.Promote = func(encoded []byte, o Outcome) error {
		published = append([]byte(nil), encoded...)
		return nil
	}
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(l, recs)

	st := l.Stats()
	if st.DriftEvents == 0 {
		t.Fatal("no drift detected across the injected shift")
	}
	if st.Retrains == 0 || st.Promotions == 0 {
		t.Fatalf("retrains=%d promotions=%d, want >= 1 each (skips=%d)", st.Retrains, st.Promotions, st.Skips)
	}
	if l.Champion() == nil {
		t.Fatal("no champion after promotion")
	}
	if st.ChallengerAUC < 0.7 {
		t.Fatalf("challenger AUC %.3f implausibly low for the synthetic signature", st.ChallengerAUC)
	}

	// Drift must postdate the shift: the stationary prefix is clean.
	preShift := 0
	for i := range recs {
		if recs[i].rec.Day < 100 {
			preShift++
		}
	}
	var sawPromote bool
	for _, e := range l.Log().Recent(0) {
		if e.Kind == EventDrift && e.Tick <= uint64(preShift) {
			t.Fatalf("drift event at tick %d, before the day-100 shift (%d pre-shift records)", e.Tick, preShift)
		}
		if e.Kind == EventPromote {
			sawPromote = true
			sum := sha256.Sum256(published)
			want := "sha256=" + hex.EncodeToString(sum[:])[:12]
			if !strings.Contains(e.String(), want) {
				t.Fatalf("promote event %q does not carry %s", e.String(), want)
			}
		}
	}
	if !sawPromote {
		t.Fatal("no promote event in the log")
	}
	if len(published) == 0 {
		t.Fatal("promote hook never received model bytes")
	}
}

// TestSteadyStreamTriggersNothing pins the false-positive side: the
// same fleet without the shift must never drift, retrain, or promote.
func TestSteadyStreamTriggersNothing(t *testing.T) {
	l, err := NewLoop(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(l, steadyStream())
	st := l.Stats()
	if st.DriftEvents != 0 || st.Retrains != 0 || st.Promotions != 0 || st.Skips != 0 {
		t.Fatalf("stationary stream triggered drift=%d retrains=%d promotions=%d skips=%d",
			st.DriftEvents, st.Retrains, st.Promotions, st.Skips)
	}
}

// trainedChampion builds a competent predictor by running one clean
// retrain over the steady stream.
func trainedChampion(t *testing.T) *model.Predictor {
	t.Helper()
	l, err := NewLoop(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(l, steadyStream())
	o := l.Retrain()
	if !o.Promoted {
		t.Fatalf("champion training retrain not promoted: %+v", o)
	}
	return l.Champion()
}

// TestCrippledChallengerRejected is the champion/challenger safety
// property: a challenger trained on scrambled labels must fail the
// non-inferiority gate, leave the champion serving, and never reach the
// Promote side effect.
func TestCrippledChallengerRejected(t *testing.T) {
	champion := trainedChampion(t)

	cfg := testConfig()
	cfg.Champion = champion
	cfg.MutateTrain = func(m *dataset.Matrix) {
		// Rotate the labels by a large offset: same class balance, but
		// features and labels are decorrelated, so the challenger's
		// holdout AUC collapses to coin-flipping.
		rotated := make([]int8, len(m.Y))
		for i := range m.Y {
			rotated[i] = m.Y[(i+997)%len(m.Y)]
		}
		copy(m.Y, rotated)
	}
	cfg.Promote = func([]byte, Outcome) error {
		t.Fatal("promote side effect ran for a crippled challenger")
		return nil
	}
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(l, driftStream())
	st := l.Stats()
	if st.Promotions != 0 {
		t.Fatalf("crippled challenger promoted %d times", st.Promotions)
	}
	if st.Rejections == 0 {
		t.Fatalf("no rejection recorded (retrains=%d skips=%d)", st.Retrains, st.Skips)
	}
	if l.Champion() != champion {
		t.Fatal("champion replaced despite rejection")
	}
	var sawReject bool
	for _, e := range l.Log().Recent(0) {
		if e.Kind == EventReject && strings.Contains(e.String(), "reason=inferior") {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("no reason=inferior reject event in the log")
	}
}

// TestPromoteFailureKeepsChampion: a failed promotion side effect (the
// daemon refused the reload) must count as a rejection and keep the old
// champion, and the decision log must record reason=promote_failed.
func TestPromoteFailureKeepsChampion(t *testing.T) {
	champion := trainedChampion(t)
	cfg := testConfig()
	cfg.Champion = champion
	cfg.Promote = func([]byte, Outcome) error { return errors.New("daemon away") }
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(l, driftStream())
	st := l.Stats()
	if st.Promotions != 0 || st.Rejections == 0 {
		t.Fatalf("promotions=%d rejections=%d after failing promote", st.Promotions, st.Rejections)
	}
	if l.Champion() != champion {
		t.Fatal("champion replaced despite failed promotion")
	}
	var sawReason bool
	for _, e := range l.Log().Recent(0) {
		if e.Kind == EventReject && strings.Contains(e.String(), "reason=promote_failed") {
			sawReason = true
		}
	}
	if !sawReason {
		t.Fatal("no reason=promote_failed reject event")
	}
}

// TestDonorBootstrap is the Table 8 transfer path: with no champion but
// a donor predictor, the loop starts from the donor (logging the
// bootstrap), the donor sets the bar at evaluation time, and a local
// challenger that clears it takes the slot.
func TestDonorBootstrap(t *testing.T) {
	donor := trainedChampion(t)
	cfg := testConfig()
	cfg.Donor = donor
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Champion() != donor {
		t.Fatal("donor did not seed the champion slot")
	}
	events := l.Log().Recent(0)
	if len(events) == 0 || events[0].Kind != EventBootstrap {
		t.Fatalf("first event %v, want bootstrap", events)
	}
	if !strings.Contains(events[0].String(), "source=donor") {
		t.Fatalf("bootstrap event %q lacks source=donor", events[0].String())
	}

	feed(l, driftStream())
	o := l.Retrain()
	if math.IsNaN(o.ChampionAUC) {
		t.Fatal("donor champion not evaluated")
	}
	st := l.Stats()
	if st.Promotions+st.Rejections == 0 {
		t.Fatalf("no evaluation against the donor (skips=%d)", st.Skips)
	}
}

// TestRetrainSkipsOnThinData: a stream too short to label must skip,
// not train, and say why.
func TestRetrainSkipsOnThinData(t *testing.T) {
	cfg := testConfig()
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(l, synthStream(synthConfig{drives: 8, days: 30, shiftDay: -1, seed: 3}))
	o := l.Retrain()
	if o.Promoted || o.Reason != "insufficient_train" {
		t.Fatalf("outcome %+v, want insufficient_train skip", o)
	}
	if st := l.Stats(); st.Skips != 1 {
		t.Fatalf("skips=%d, want 1", st.Skips)
	}
}

// TestSeedDerivationContract pins the reproducibility contract: the
// retrain seed is DeriveSeed(base, "learn/retrain/lsn=<lsn>"), so the
// same WAL prefix names the same seed at any StartLSN offset, and
// different prefixes name different seeds.
func TestSeedDerivationContract(t *testing.T) {
	recs := driftStream()
	mk := func(start uint64) Outcome {
		cfg := testConfig()
		cfg.StartLSN = start
		l, err := NewLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(l, recs)
		return l.Retrain()
	}
	a, b := mk(0), mk(0)
	if a.Seed == 0 || a.Seed != b.Seed {
		t.Fatalf("same prefix, different seeds: %d vs %d", a.Seed, b.Seed)
	}
	want := expgrid.DeriveSeed(42, fmt.Sprintf("learn/retrain/lsn=%d", a.LSN))
	if a.Seed != want {
		t.Fatalf("seed %d, want DeriveSeed contract %d", a.Seed, want)
	}
	c := mk(1000)
	if c.LSN != a.LSN+1000 {
		t.Fatalf("LSN %d, want %d", c.LSN, a.LSN+1000)
	}
	if c.Seed == a.Seed {
		t.Fatal("different stream positions derived the same retrain seed")
	}
}

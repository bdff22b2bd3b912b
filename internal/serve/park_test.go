package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"ssdfail/internal/trace"
)

// parkTimers stands in for time.NewTimer on a server under test: it
// records the wait each parked request asked for and fires only when
// the test says so, so "the cap passed" is an event, not a sleep.
type parkTimers struct {
	mu       sync.Mutex
	asked    []time.Duration
	fires    []chan time.Time
	onCreate func() // runs after the request looked at the log and before it parks
}

func (p *parkTimers) install(s *Server) *parkTimers {
	s.parkTimer = func(d time.Duration) (<-chan time.Time, func()) {
		c := make(chan time.Time, 1)
		p.mu.Lock()
		p.asked = append(p.asked, d)
		p.fires = append(p.fires, c)
		hook := p.onCreate
		p.mu.Unlock()
		if hook != nil {
			hook()
		}
		return c, func() {}
	}
	return p
}

// fire lets the cap of the i-th parked request pass.
func (p *parkTimers) fire(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fires[i] <- time.Time{}
}

func (p *parkTimers) waits() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.asked...)
}

// parkBatch is n valid first-day reports for n distinct drives.
func parkBatch(n int) []trace.IngestRecord {
	batch := make([]trace.IngestRecord, n)
	for i := range batch {
		rec := crashRec(i, 0)
		batch[i] = trace.WireRecord(uint32(7000+i), trace.Model(i%trace.NumModels), &rec)
	}
	return batch
}

type streamReply struct {
	code    int
	frames  []uint64 // LSNs, in wire order
	parked  bool
	lastLSN string
}

// pullStream issues one catch-up request and parses the reply.
func pullStream(t *testing.T, ctx context.Context, url string) (streamReply, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return streamReply{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return streamReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return streamReply{}, err
	}
	rep := streamReply{
		code:    resp.StatusCode,
		parked:  resp.Header.Get(trace.HeaderWALParked) != "",
		lastLSN: resp.Header.Get(trace.HeaderWALLastLSN),
	}
	for resp.StatusCode == http.StatusOK && len(data) > 0 {
		lsn, _, rest, err := trace.NextStreamFrame(data, len(data))
		if err != nil {
			t.Errorf("damaged frame after %d frames: %v", len(rep.frames), err)
			break
		}
		rep.frames = append(rep.frames, lsn)
		data = rest
	}
	return rep, nil
}

// pullAsync runs pullStream on its own goroutine.
func pullAsync(t *testing.T, ctx context.Context, url string) <-chan streamReply {
	t.Helper()
	out := make(chan streamReply, 1)
	go func() {
		rep, err := pullStream(t, ctx, url)
		if err != nil {
			rep.code = -1
		}
		out <- rep
	}()
	return out
}

func awaitParked(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.streamParking.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked, want %d", s.streamParking.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitReply(t *testing.T, ch <-chan streamReply, what string) streamReply {
	t.Helper()
	select {
	case rep := <-ch:
		return rep
	case <-time.After(10 * time.Second):
		t.Fatalf("parked request still waiting: %s", what)
		return streamReply{}
	}
}

func newParkServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *parkTimers) {
	t.Helper()
	s, ts := newTestServer(t, func(c *Config) {
		c.WALDir = t.TempDir()
		if mutate != nil {
			mutate(c)
		}
	})
	t.Cleanup(func() { s.Close() }) // wakes anything a failed test left parked, before ts.Close waits for it
	return s, ts, (&parkTimers{}).install(s)
}

// TestStreamParkWokenOncePerIngestRequest: a parked request is woken
// when an ingest request ends — once for a batch of 64 records, and its
// one reply carries all 64.
func TestStreamParkWokenOncePerIngestRequest(t *testing.T) {
	s, ts, _ := newParkServer(t, nil)
	reply := pullAsync(t, context.Background(), ts.URL+"/v1/wal/stream?from=1&wait_ms=1000")
	awaitParked(t, s, 1)

	if resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", parkBatch(64)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	rep := awaitReply(t, reply, "an ingest request ended")
	if rep.code != http.StatusOK || !rep.parked || rep.lastLSN != "64" {
		t.Fatalf("reply: %+v, want a parked 200 with last LSN 64", rep)
	}
	if len(rep.frames) != 64 || rep.frames[0] != 1 || rep.frames[63] != 64 {
		t.Fatalf("woken reply carries %d frames %v, want LSNs 1..64 in one reply", len(rep.frames), rep.frames)
	}
	snap := s.CounterSnapshot()
	if got := snap["ssdserved_wal_stream_wakeups_total"]; got != 1 {
		t.Fatalf("a batch of 64 woke the parked request %v times, want once", got)
	}
	if got := snap[`ssdserved_http_requests_total{handler="wal_stream",code="200"}`]; got != 1 {
		t.Fatalf("%v stream requests served, want 1", got)
	}
	if got := snap["ssdserved_wal_stream_parked"]; got != 0 {
		t.Fatalf("parked gauge reads %v after the reply", got)
	}
}

// TestStreamParkWokenByEachIngestRoute: the three ingest handlers share
// the slot release that carries the wake, and a replicated apply wakes a
// follower chained behind this node.
func TestStreamParkWokenByEachIngestRoute(t *testing.T) {
	s, ts, _ := newParkServer(t, nil)
	next := 1
	pull := func() <-chan streamReply {
		ch := pullAsync(t, context.Background(), ts.URL+"/v1/wal/stream?wait_ms=1000&from="+strconv.Itoa(next))
		awaitParked(t, s, 1)
		return ch
	}
	expect := func(ch <-chan streamReply, route string, frames int) {
		t.Helper()
		rep := awaitReply(t, ch, route)
		if rep.code != http.StatusOK || len(rep.frames) != frames {
			t.Fatalf("%s: reply %+v, want %d frames", route, rep, frames)
		}
		next += frames
	}
	batch := parkBatch(4)

	ch := pull()
	if resp, body := postJSON(t, ts.URL+"/v1/ingest", batch[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	expect(ch, "POST /v1/ingest", 1)

	ch = pull()
	rec := crashRec(1, 0)
	body := AppendBinRecord(AppendBinHeader(nil, 1), batch[1].DriveID, trace.Model(1%trace.NumModels), &rec)
	if code, reply := postBin(t, ts.URL, body); code != http.StatusAccepted {
		t.Fatalf("bin ingest status %d: %v", code, reply)
	}
	expect(ch, "POST /v1/ingest/bin", 1)

	ch = pull()
	rec = crashRec(2, 0)
	if ok, err := s.ApplyReplicated(batch[2].DriveID, trace.Model(2%trace.NumModels), rec); !ok || err != nil {
		t.Fatalf("ApplyReplicated: applied %v err %v", ok, err)
	}
	expect(ch, "ApplyReplicated", 1)

	// A request that appends nothing still wakes — to an empty reply
	// the follower re-polls; the rate is bounded by the ingest rate.
	ch = pull()
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", batch[0]); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate ingest status %d, want 422", resp.StatusCode)
	}
	if rep := awaitReply(t, ch, "a rejected ingest"); rep.code != http.StatusOK || len(rep.frames) != 0 || !rep.parked {
		t.Fatalf("reply after a rejected ingest: %+v", rep)
	}
}

// TestStreamParkWokenByDrainAndClose: shutdown wakes what is parked, and
// nothing parks afterwards — with no parked marker, so a follower falls
// back to its tick rather than spinning on a draining primary.
func TestStreamParkWokenByDrainAndClose(t *testing.T) {
	for _, how := range []string{"Drain", "Close"} {
		s, ts, timers := newParkServer(t, nil)
		reply := pullAsync(t, context.Background(), ts.URL+"/v1/wal/stream?from=1&wait_ms=1000")
		awaitParked(t, s, 1)
		if how == "Drain" {
			s.Drain()
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rep := awaitReply(t, reply, how)
		if how == "Drain" && (rep.code != http.StatusOK || len(rep.frames) != 0 || !rep.parked) {
			t.Fatalf("reply to a request parked across Drain: %+v", rep)
		}
		// Close wakes the request and then closes the log: the woken look
		// finds it still open (an empty 200) or already closed (a 500).
		if how == "Close" && (len(rep.frames) != 0 || rep.code != http.StatusOK && rep.code != http.StatusInternalServerError) {
			t.Fatalf("reply to a request parked across Close: %+v", rep)
		}
		if how == "Drain" {
			after, err := pullStream(t, context.Background(), ts.URL+"/v1/wal/stream?from=1&wait_ms=1000")
			if err != nil || after.code != http.StatusOK || after.parked {
				t.Fatalf("request after Drain: %+v err %v, want an immediate unparked 200", after, err)
			}
		}
		if got := len(timers.waits()); got != 1 {
			t.Fatalf("%s: %d requests reached the park, want only the first", how, got)
		}
	}
}

// TestStreamParkEndsWithContext: the client going away (or the request
// deadline) ends the park.
func TestStreamParkEndsWithContext(t *testing.T) {
	s, _, _ := newParkServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/wal/stream?from=1&wait_ms=1000", nil).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
		done <- rec
	}()
	awaitParked(t, s, 1)
	cancel()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
			t.Fatalf("reply after the context ended: %d, %d bytes", rec.Code, rec.Body.Len())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler still parked after its context ended")
	}
	if got := s.CounterSnapshot()["ssdserved_wal_stream_wakeups_total"]; got != 0 {
		t.Fatalf("a context end counted as %v wake-ups", got)
	}
}

// TestStreamParkCapAndServiceTime: wait_ms is honoured up to
// MaxStreamWait, the cap passing ends the park with an empty parked
// reply, and the time spent parked stays out of the request-latency
// histogram — on a stepping clock, exactly.
func TestStreamParkCapAndServiceTime(t *testing.T) {
	clock := newStepClock(time.Second)
	s, ts, timers := newParkServer(t, func(c *Config) { c.Clock = clock.Now })
	for i, q := range []string{"wait_ms=250", "wait_ms=9223372036854775807"} {
		reply := pullAsync(t, context.Background(), ts.URL+"/v1/wal/stream?from=1&"+q)
		awaitParked(t, s, 1)
		timers.fire(i)
		rep := awaitReply(t, reply, "the cap passed")
		if rep.code != http.StatusOK || len(rep.frames) != 0 || !rep.parked || rep.lastLSN != "0" {
			t.Fatalf("%s: reply %+v, want an empty parked 200", q, rep)
		}
	}
	if got, want := timers.waits(), []time.Duration{250 * time.Millisecond, trace.MaxStreamWait}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parked for %v, want %v", got, want)
	}
	snap := s.CounterSnapshot()
	// Clock reads per parked request: instrument begin, park begin, park
	// end, instrument end — three steps, one of them parked.
	if sum, n := snap["ssdserved_http_request_duration_seconds_sum"], snap["ssdserved_http_request_duration_seconds_count"]; sum != 4 || n != 2 {
		t.Fatalf("request duration sum %v over %v requests, want 4 over 2: park time must not count as service time", sum, n)
	}
	if got := snap["ssdserved_wal_stream_wakeups_total"]; got != 0 {
		t.Fatalf("the cap passing counted as %v wake-ups", got)
	}
}

// TestStreamParkNoLostWake: an ingest request that ends after the
// handler found nothing and before it parks must still wake it. The
// timer is created exactly in that window, so the fake's hook is where
// the publish lands; the timer itself never fires.
func TestStreamParkNoLostWake(t *testing.T) {
	s, ts, timers := newParkServer(t, nil)
	timers.onCreate = func() {
		if resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", parkBatch(3)); resp.StatusCode != http.StatusAccepted {
			t.Errorf("batch status %d: %s", resp.StatusCode, body)
		}
	}
	reply := pullAsync(t, context.Background(), ts.URL+"/v1/wal/stream?from=1&wait_ms=1000")
	rep := awaitReply(t, reply, "the publish landed between the look and the park")
	if rep.code != http.StatusOK || len(rep.frames) != 3 {
		t.Fatalf("reply %+v, want the 3 frames published in the window", rep)
	}
	if got := s.CounterSnapshot()["ssdserved_wal_stream_wakeups_total"]; got != 1 {
		t.Fatalf("%v wake-ups, want 1", got)
	}
}

// TestStreamWithoutWaitNeverParks: no wait_ms (or a non-positive one)
// is the immediate pull PullOnce and every pre-existing client rely on,
// and a pull that has frames to return answers at once whatever it asks.
func TestStreamWithoutWaitNeverParks(t *testing.T) {
	_, ts, timers := newParkServer(t, nil)
	for _, q := range []string{"", "&wait_ms=0", "&wait_ms=-5"} {
		rep, err := pullStream(t, context.Background(), ts.URL+"/v1/wal/stream?from=1"+q)
		if err != nil || rep.code != http.StatusOK || len(rep.frames) != 0 || rep.parked || rep.lastLSN != "0" {
			t.Fatalf("caught-up pull %q: %+v err %v, want an immediate empty unparked 200", q, rep, err)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", parkBatch(5)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	rep, err := pullStream(t, context.Background(), ts.URL+"/v1/wal/stream?from=3&wait_ms=1000")
	if err != nil || len(rep.frames) != 3 || rep.frames[0] != 3 || rep.parked || rep.lastLSN != "5" {
		t.Fatalf("pull with frames waiting: %+v err %v, want LSNs 3..5 at once", rep, err)
	}
	if got := len(timers.waits()); got != 0 {
		t.Fatalf("%d requests parked, want none", got)
	}
	if rep, err := pullStream(t, context.Background(), ts.URL+"/v1/wal/stream?from=1&wait_ms=soon"); err != nil || rep.code != http.StatusBadRequest {
		t.Fatalf("bad wait_ms: %+v err %v, want 400", rep, err)
	}
}

// TestTailSignal pins the primitive: a channel taken before a wake is
// closed by it, one wake releases every watcher, a wake with nobody
// watching is free, and nothing can be watched after drain.
func TestTailSignal(t *testing.T) {
	var sig tailSignal
	sig.wake() // nobody watching
	a, b := sig.watch(), sig.watch()
	if a != b {
		t.Fatal("two watchers between wakes got different channels")
	}
	select {
	case <-a:
		t.Fatal("channel closed before any wake")
	default:
	}
	sig.wake()
	select {
	case <-a:
	default:
		t.Fatal("wake left the watched channel open")
	}
	if c := sig.watch(); c == a {
		t.Fatal("a watch after the wake got the closed channel")
	} else {
		sig.drain()
		select {
		case <-c:
		default:
			t.Fatal("drain left a watched channel open")
		}
	}
	if sig.watch() != nil {
		t.Fatal("watch after drain returned a channel")
	}
}

package serve_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ssdfail/internal/cluster"
	"ssdfail/internal/serve"
)

// manualClock moves only when the test moves it.
type manualClock struct {
	mu sync.Mutex
	at time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

// TestFollowerParkIdleRateAndShutdown attaches a real cluster.Follower
// to an idle primary whose clock and park timer belong to the test. Time
// passes only when the test lets a parked request's cap pass, so the
// request rate is read off exactly: one stream request per second of
// injected clock, none of it counted as request latency, and never an
// error on the follower. Then the primary shuts down with the follower
// parked on a timer that never fires: the drain must not wait for it.
func TestFollowerParkIdleRateAndShutdown(t *testing.T) {
	clock := &manualClock{at: time.Unix(1_700_000_000, 0)}
	srv, err := serve.New(serve.Config{ModelPath: serve.FixModelPath(), WALDir: t.TempDir(), Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	armed := make(chan chan time.Time, 16) // one send per request that parks; room so a failed test cannot strand a handler
	srv.SetParkTimer(func(d time.Duration) (<-chan time.Time, func()) {
		if d != serve.MaxStreamWait {
			t.Errorf("follower asked to park for %v, want %v", d, serve.MaxStreamWait)
		}
		fire := make(chan time.Time, 1)
		armed <- fire
		return fire, func() {}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Config.RegisterOnShutdown(srv.Drain)

	fol := &cluster.Follower{Upstream: ts.URL, Apply: srv.ApplyReplicated, PollInterval: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()

	nextParked := func() chan time.Time {
		t.Helper()
		select {
		case fire := <-armed:
			return fire
		case <-time.After(10 * time.Second):
			t.Fatalf("follower never parked (stats %+v)", fol.Stats())
			return nil
		}
	}
	const idleSeconds = 5
	for i := 0; i < idleSeconds; i++ {
		fire := nextParked()
		clock.advance(serve.MaxStreamWait)
		fire <- clock.Now()
	}
	nextParked() // the request after the last cap; it stays parked

	const served = `ssdserved_http_requests_total{handler="wal_stream",code="200"}`
	snap := srv.CounterSnapshot()
	if got := snap[served]; got != idleSeconds {
		t.Fatalf("%v stream requests served in %d idle seconds of injected clock, want one a second", got, idleSeconds)
	}
	if got := snap["ssdserved_http_request_duration_seconds_sum"]; got != 0 {
		t.Fatalf("request latency sum %v s after %d s parked, want 0: parking is not service time", got, idleSeconds)
	}
	if st := fol.Stats(); st.LastErr != nil || st.Pulls != idleSeconds+1 || st.PrimaryLSN != 0 {
		t.Fatalf("follower against an idle primary: %+v, want %d clean pulls", st, idleSeconds+1)
	}

	shutCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := ts.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown with a follower parked: %v (its cap never passes; Drain must wake it)", err)
	}
	cancel()
	<-done
}

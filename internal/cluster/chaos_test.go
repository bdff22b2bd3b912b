package cluster

// The cluster chaos suite: a 3-node ssdserved fleet behind ssdrouter's
// routing tier, driven by a deterministic loadgen schedule while the
// harness kill -9s one node mid-run and partitions another at the
// network layer. The pass criterion is the clustered zero-loss
// contract: every record the cluster ever acknowledged is present in
// per-drive end state read back through the router, and fleet queries
// during the partition degrade explicitly instead of erroring or
// silently truncating.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/serve"
)

// chaosNode is an ssdserved node the harness can kill -9 and restart:
// the HTTP server is closed abruptly and the serve.Server — journal
// included — is abandoned without any shutdown path, exactly like a
// SIGKILL. Restart rebinds the same address behind a readiness Gate and
// recovers from the same WAL directory.
type chaosNode struct {
	name   string
	walDir string
	addr   string

	srv     *serve.Server
	httpSrv *http.Server
}

func startChaosNode(t *testing.T, n *chaosNode) {
	t.Helper()
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("node %s: listen %s: %v", n.name, addr, err)
	}
	n.addr = ln.Addr().String()

	// The listener answers before recovery begins — as the starting
	// phase of the readiness contract, not as a ready node.
	gate := NewGate()
	n.httpSrv = &http.Server{Handler: gate}
	go n.httpSrv.Serve(ln) //nolint — Serve returns ErrServerClosed on kill

	srv, err := serve.New(serve.Config{
		ModelPath:    fixModelPath,
		WALDir:       n.walDir,
		NodeName:     n.name,
		WALSyncEvery: 1, // every ack durable before it is sent
	})
	if err != nil {
		t.Fatalf("node %s: serve.New: %v", n.name, err)
	}
	n.srv = srv
	gate.Ready(srv.Handler())
}

func (n *chaosNode) url() string { return "http://" + n.addr }

// kill closes the listener and every open connection immediately and
// abandons the server state — no journal close, no flush, no drain.
func (n *chaosNode) kill() {
	n.httpSrv.Close()
	n.srv = nil
}

// getHealth fetches /v1/health and returns (code, status field).
func getHealth(url string) (int, string, error) {
	resp, err := http.Get(url + "/v1/health")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, body.Status, nil
}

func TestClusterChaosZeroAcceptedRecordLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is slow")
	}

	// --- Topology: n1 (kill target, no follower), n2 (partition target
	// behind a faultfs proxy, replicated to follower f2), n3 (plain).
	n1 := &chaosNode{name: "n1", walDir: t.TempDir()}
	startChaosNode(t, n1)
	t.Cleanup(func() {
		if n1.httpSrv != nil {
			n1.httpSrv.Close()
		}
	})

	srv2, ts2 := newNode(t, "n2")
	_ = srv2
	proxy, err := faultfs.NewProxy(ts2.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	f2srv, f2ts := newNode(t, "f2")
	// f2 replicates from n2's direct address: the proxy models a client-
	// facing network fault, not a replication-link fault, so promotion
	// onto f2 is lossless.
	fol := &Follower{Upstream: ts2.URL, Apply: f2srv.ApplyReplicated, PollInterval: 10 * time.Millisecond}
	folCtx, folCancel := context.WithCancel(context.Background())
	defer folCancel()
	go fol.Run(folCtx)

	_, ts3 := newNode(t, "n3")

	rt, rts := newTestRouter(t, RouterConfig{
		Nodes: []Node{
			{Name: "n1", URL: n1.url()},
			{Name: "n2", URL: "http://" + proxy.Addr(), FollowerName: "f2", FollowerURL: f2ts.URL},
			{Name: "n3", URL: ts3.URL},
		},
		ProbeInterval:   20 * time.Millisecond,
		PerNodeDeadline: 300 * time.Millisecond,
		HedgeAfter:      50 * time.Millisecond,
	})
	waitFor(t, 5*time.Second, "initial probes to settle", rt.AllUp)

	// --- Deterministic schedule. The exact per-drive report count is the
	// loss oracle: any accepted-then-lost record leaves a drive one
	// report short.
	lcfg := loadgen.DefaultConfig(31)
	lcfg.DrivesPerModel = 24
	lcfg.HorizonDays = 150
	lcfg.Days = 8
	lcfg.BatchSize = 8
	lcfg.ProbeEvery = 4
	lcfg.ReloadMidRun = false // a broadcast reload during an outage is a different test
	sched, err := loadgen.Build(lcfg)
	if err != nil {
		t.Fatal(err)
	}

	runner := &loadgen.Runner{
		BaseURL:        rts.URL,
		RetryTransient: true, // cluster mode: re-sends are benign duplicates
		Seed:           7,
		MaxShedRetries: 128,
	}

	// --- The chaos plan, keyed to accepted-record fractions.
	var degradedWatch struct {
		Count    int      `json:"count"`
		Degraded []string `json:"degraded"`
	}
	plan := &loadgen.ChaosPlan{Actions: []loadgen.ChaosAction{
		{AtFraction: 0.25, Name: "kill-n1-restart", Do: func() error {
			n1.kill()
			// Every batch spanning n1's partition now fails; the
			// clients bridge the outage with capped backoff while the
			// node is gone. kill -9 semantics: no flush, no close.
			time.Sleep(1500 * time.Millisecond)
			startChaosNode(t, n1)
			return nil
		}},
		{AtFraction: 0.55, Name: "partition-n2", Do: func() error {
			proxy.Partition()
			// A fleet query scattered before failover must come back
			// degraded — 200 with the dark node named — within the
			// per-node deadline, never an error or a silent truncation.
			resp, err := http.Get(rts.URL + "/v1/watchlist?threshold=0&k=100000")
			if err != nil {
				return fmt.Errorf("watchlist during partition: %w", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("watchlist during partition: status %d, want 200", resp.StatusCode)
			}
			return json.NewDecoder(resp.Body).Decode(&degradedWatch)
		}},
		{AtFraction: 0.80, Name: "heal-n2", Do: func() error {
			proxy.Heal()
			return nil
		}},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- plan.RunChaos(ctx, runner, sched.TotalRecords) }()

	res, err := runner.Run(ctx, sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos plan: %v", err)
	}
	if plan.Fired() != len(plan.Actions) {
		t.Fatalf("only %d/%d chaos actions fired", plan.Fired(), len(plan.Actions))
	}

	// The mid-partition fleet query degraded explicitly.
	if len(degradedWatch.Degraded) == 0 {
		t.Error("watchlist during partition reported no degraded endpoints")
	}
	if degradedWatch.Count == 0 {
		t.Error("watchlist during partition silently dropped the healthy partitions' items")
	}

	// The chaos actually exercised the retry machinery.
	if res.ShedRetries+res.TransientRetries == 0 {
		t.Error("no retries recorded — the chaos plan did not disturb the run")
	}
	if res.DroppedRecords != 0 {
		t.Fatalf("%d records dropped: the retry budget did not bridge the chaos window", res.DroppedRecords)
	}

	// --- The zero-loss oracle: per-drive end state through the router,
	// exact to the day, for every drive the schedule replayed.
	violations, err := runner.Verify(ctx, res, loadgen.VerifyOptions{Cluster: true})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, v := range violations {
		t.Errorf("conformance: %s", v)
	}

	// The partitioned node's traffic failed over to its follower and
	// stayed there (sticky promotion), which is where the verified state
	// now lives.
	promoted := false
	for _, s := range rt.TrackerStatus() {
		if s.Name == "f2" && s.Active {
			promoted = true
		}
	}
	if !promoted {
		t.Error("n2's partition did not fail over to f2")
	}

	// CI artifact: the cluster conformance report.
	if path := os.Getenv("SSDFAIL_CLUSTER_REPORT"); path != "" {
		full := struct {
			*loadgen.Report
			Chaos         []loadgen.ChaosLogEntry `json:"chaos"`
			DegradedProbe []string                `json:"degraded_probe"`
		}{loadgen.NewReport(res, violations, true), plan.Log(), degradedWatch.Degraded}
		data, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterBinaryWireIngest drives the binary ingest wire end to end
// through the router — frames split by ring owner without re-encoding —
// across a kill -9 and recovery of one node, and holds the run to the
// same zero-loss contract as the JSON wire: every acknowledged record
// present in per-drive end state, exact to the day.
func TestRouterBinaryWireIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is slow")
	}

	n1 := &chaosNode{name: "b1", walDir: t.TempDir()}
	startChaosNode(t, n1)
	t.Cleanup(func() {
		if n1.httpSrv != nil {
			n1.httpSrv.Close()
		}
	})
	_, ts2 := newNode(t, "b2")

	rt, rts := newTestRouter(t, RouterConfig{
		Nodes: []Node{
			{Name: "b1", URL: n1.url()},
			{Name: "b2", URL: ts2.URL},
		},
		ProbeInterval:   20 * time.Millisecond,
		PerNodeDeadline: 300 * time.Millisecond,
	})
	waitFor(t, 5*time.Second, "initial probes to settle", rt.AllUp)

	lcfg := loadgen.DefaultConfig(43)
	lcfg.DrivesPerModel = 16
	lcfg.HorizonDays = 150
	lcfg.Days = 8
	lcfg.BatchSize = 8
	lcfg.ProbeEvery = 4
	lcfg.ReloadMidRun = false
	lcfg.Wire = loadgen.WireBinary
	sched, err := loadgen.Build(lcfg)
	if err != nil {
		t.Fatal(err)
	}

	runner := &loadgen.Runner{
		BaseURL:        rts.URL,
		RetryTransient: true, // cluster mode: re-sends are benign duplicates
		Seed:           7,
		MaxShedRetries: 128,
	}

	plan := &loadgen.ChaosPlan{Actions: []loadgen.ChaosAction{
		{AtFraction: 0.4, Name: "kill-b1-restart", Do: func() error {
			n1.kill()
			time.Sleep(1 * time.Second)
			startChaosNode(t, n1)
			return nil
		}},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- plan.RunChaos(ctx, runner, sched.TotalRecords) }()

	res, err := runner.Run(ctx, sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos plan: %v", err)
	}
	if plan.Fired() != len(plan.Actions) {
		t.Fatalf("only %d/%d chaos actions fired", plan.Fired(), len(plan.Actions))
	}

	if res.ShedRetries+res.TransientRetries == 0 {
		t.Error("no retries recorded — the kill did not disturb the run")
	}
	if res.DroppedRecords != 0 {
		t.Fatalf("%d records dropped: the retry budget did not bridge the outage", res.DroppedRecords)
	}

	violations, err := runner.Verify(ctx, res, loadgen.VerifyOptions{Cluster: true})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, v := range violations {
		t.Errorf("conformance: %s", v)
	}
}

// TestReadinessGateHoldsUntilRecovery pins the starting-phase contract
// on its own: a gated listener answers 503 {"status":"starting"} with a
// Retry-After hint until the handler is swapped in.
func TestReadinessGateHoldsUntilRecovery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := NewGate()
	hs := &http.Server{Handler: gate}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()

	code, status, err := getHealth(url)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || status != "starting" {
		t.Fatalf("gated health = %d %q, want 503 starting", code, status)
	}

	resp, err := http.Get(url + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	ra := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if ra == "" {
		t.Fatal("starting response carries no Retry-After hint")
	}

	gate.Ready(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ready"}`)
	}))
	code, status, err = getHealth(url)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || status != "ready" {
		t.Fatalf("ready health = %d %q", code, status)
	}
}

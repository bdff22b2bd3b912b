package cluster

// Shared fixture for the cluster tests: a simulated fleet and a small
// trained predictor on disk, built once, plus helpers that boot real
// ssdserved nodes over httptest and front them with a Router.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

var (
	fixFleet     *trace.Fleet
	fixModelPath string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ssdcluster-test")
	if err != nil {
		log.Fatal(err)
	}
	cfg := fleetsim.DefaultConfig(7, 60)
	cfg.HorizonDays = 400
	cfg.EarlyWindow = 150
	fleet, _, err := fleetsim.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fixFleet = fleet
	fcfg := forest.DefaultConfig()
	fcfg.Trees = 10
	fcfg.Seed = 7
	pred, err := core.NewStudy(fleet).TrainPredictor(core.PredictorOptions{
		Lookahead: 3, Factory: forest.NewFactory(fcfg), Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fixModelPath = filepath.Join(dir, "model.bin")
	if err := pred.Save(fixModelPath); err != nil {
		log.Fatal(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// newNode boots a WAL-backed ssdserved with the fixture model.
func newNode(t *testing.T, name string) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		ModelPath: fixModelPath,
		WALDir:    t.TempDir(),
		NodeName:  name,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newTestRouter builds and starts a router with a fast probe cadence;
// the probe loop stops at test cleanup.
func newTestRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// fleetRecords collects, for every fixture drive with at least offset+1
// reports, the report offset steps back from its last one.
func fleetRecords(offset int) []trace.IngestRecord {
	var out []trace.IngestRecord
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		j := len(d.Days) - 1 - offset
		if j < 0 {
			continue
		}
		out = append(out, trace.WireRecord(d.ID, d.Model, &d.Days[j]))
	}
	return out
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
	}
	return resp.StatusCode
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"
)

// RunConfig is what one pass of one workload is given.
type RunConfig struct {
	Seed    uint64
	Seconds float64 // measuring time of the pass, split evenly over the trials
	Trace   bool
	// TraceOut, when non-empty, is a file the traced pass writes its
	// spans to, one JSON object per line.
	TraceOut string
	Log      io.Writer // progress lines for people
}

func (c *RunConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// trials is how many trials a pass runs: the workload's own count for
// the end-to-end pass, one for the traced pass.
func (c *RunConfig) trials(n int) int {
	if c.Trace {
		return 1
	}
	return n
}

// window is the length of one of a workload's n trials.
func (c *RunConfig) window(n int) time.Duration {
	return time.Duration(c.Seconds / float64(n) * float64(time.Second))
}

// Workload is one named benchmark workload.
type Workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why string
	Run func(ctx context.Context, env *Env, cfg RunConfig) (*Outcome, error)
}

// Workloads lists the four workloads in the order they run.
var Workloads = []Workload{
	{
		Name: "ingest_direct",
		Why:  "write-only bulk binary ingest into one ssdserved: frame decode, upsert, WAL fsync and snapshots do all the work, the scorer none",
		Run:  runIngestDirect,
	},
	{
		Name: "fleet_scan",
		Why:  "repeated full-fleet watchlists beside a JSON trickle: the scorer (ScoreUnits, feature rows, forest, rank) does nearly all the work, the WAL almost none",
		Run:  runFleetScan,
	},
	{
		Name: "cluster_mixed",
		Why:  "open-loop ingest, reads and watchlists through ssdrouter over two primaries and a follower, at a fifth of closed-loop capacity: the only path with ring, split, fan-out and replication",
		Run:  runClusterMixed,
	},
	{
		Name: "train_grid",
		Why:  "the Table 6 retraining grid in-process, no daemon on the clock: matrix build, cache, six classifiers' fit and score, AUC",
		Run:  runTrainGrid,
	},
}

// FindWorkload returns the workload with the given name.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// nproc bounds the benchmark's generator goroutines and is the worker
// count the training grid runs with.
func nproc() int { return runtime.GOMAXPROCS(0) }

// serveTrial is what one trial of a serve workload measured.
type serveTrial struct {
	setupS  float64 // everything before the first timed request: inputs, model training, encoding, daemon start, preload
	windowS float64
	units   float64 // units of work the window completed
	cpuS    float64 // CPU seconds all daemons spent in the window
	rssMB   float64 // resident memory of all daemons at the end of the window
	clientS float64 // CPU seconds the benchmark itself spent in the window
}

// finishServe turns per-trial measurements into the end-to-end metrics
// that are medians across trials.
func finishServe(o *Outcome, trials []serveTrial) {
	n := len(trials)
	setup := make([]float64, n)
	rate := make([]float64, n)
	cpu := make([]float64, n)
	rss := make([]float64, n)
	for i, t := range trials {
		setup[i] = t.setupS
		rate[i] = t.units / t.windowS
		cpu[i] = t.cpuS / t.units * 1e6
		rss[i] = t.rssMB
	}
	o.Trials = n
	o.setMedian("setup_s", "s", setup)
	o.setMedian("units_per_s", "1/s", rate)
	o.setMedian("cpu_us_per_unit", "us", cpu)
	o.setMedian("rss_mb", "MB", rss)
}

// cpuProbe measures the CPU a set of daemons and the benchmark itself
// spend between start and stop.
type cpuProbe struct {
	daemons []*Daemon
	base    []float64
	used    []float64 // per daemon, filled by stop
	self    float64
	began   time.Time
}

func startCPUProbe(ds ...*Daemon) (*cpuProbe, error) {
	p := &cpuProbe{daemons: ds, base: make([]float64, len(ds))}
	for i, d := range ds {
		c, err := ProcCPU(d.PID())
		if err != nil {
			return nil, err
		}
		p.base[i] = c
	}
	p.self = SelfCPU()
	p.began = time.Now()
	return p, nil
}

// stop fills the trial's window length, CPU and memory fields.
func (p *cpuProbe) stop(t *serveTrial) error {
	t.windowS = time.Since(p.began).Seconds()
	t.clientS = SelfCPU() - p.self
	p.used = make([]float64, len(p.daemons))
	for i, d := range p.daemons {
		c, err := ProcCPU(d.PID())
		if err != nil {
			return err
		}
		p.used[i] = c - p.base[i]
		t.cpuS += p.used[i]
		rss, err := ProcRSSMB(d.PID(), false)
		if err != nil {
			return err
		}
		t.rssMB += rss
	}
	return nil
}

// sampleDrives picks about share of the drives in sent, seeded, in
// ascending ID order.
func sampleDrives(sent *Sent, share float64, seed uint64) []uint32 {
	ids := make([]uint32, 0, len(sent.Last))
	for id := range sent.Last {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := ids[:0:0]
	for _, id := range ids {
		if rng.Float64() < share {
			out = append(out, id)
		}
	}
	return out
}

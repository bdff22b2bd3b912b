package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// HostFacts are what two results must share to be comparable.
type HostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	WALDirFS   string `json:"wal_dir_fs"`
}

// Host reports this process's host facts; the WAL directory's
// filesystem comes from the environment that created it.
func Host(env *Env) HostFacts {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return HostFacts{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		WALDirFS:   env.WALFS,
	}
}

// Diff lists the facts in which two hosts differ.
func (h HostFacts) Diff(other HostFacts) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("num_cpu", h.NumCPU, other.NumCPU)
	add("gomaxprocs", h.GoMaxProcs, other.GoMaxProcs)
	add("go_version", h.GoVersion, other.GoVersion)
	add("kernel", h.Kernel, other.Kernel)
	add("wal_dir_fs", h.WALDirFS, other.WALDirFS)
	return out
}

// ResultKind marks a result file.
const ResultKind = "ssdbench_result"

// Result is what one invocation over several workloads writes: the
// host, the seed, and per workload the end-to-end pass (with its trial
// count, per-trial values, sample counts and schedule hashes) and the
// traced pass.
type Result struct {
	Kind      string           `json:"kind"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Host      HostFacts        `json:"host"`
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult holds one workload's two passes; Traced is nil when
// only the end-to-end pass ran.
type WorkloadResult struct {
	Name   string   `json:"name"`
	Plain  *Outcome `json:"end_to_end"`
	Traced *Outcome `json:"traced,omitempty"`
}

// WriteFile writes the result as indented JSON.
func (r *Result) WriteFile(path string) error {
	r.Kind = ResultKind
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult reads a result file.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Kind != ResultKind {
		return nil, fmt.Errorf("bench: %s is not an ssdbench result file", path)
	}
	return &r, nil
}

// Spec is BENCHMARK.json: the contract between the benchmark and
// whatever drives it.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric declaration in BENCHMARK.json. Bound is set
// only on end-to-end metrics.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ReadSpec reads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

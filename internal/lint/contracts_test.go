package lint

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// loadTestModule writes files as a temp module and loads one package
// through a fresh loader, returning the loader for accounting asserts.
func loadTestModule(t *testing.T, files map[string]string, pkg string) (*Loader, *Package) {
	t.Helper()
	root := writeTestModule(t, files)
	modRoot, module, err := FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(modRoot, module)
	p, err := loader.Load(module + "/" + pkg)
	if err != nil {
		t.Fatal(err)
	}
	return loader, p
}

// TestSummaryTriggersReentrantLoad pins the loader accounting under the
// summary pass: analyzing internal/wal forces a load of the helper
// package its calls summarize into, and a second explicit load of that
// helper is a cache hit, not a re-typecheck.
func TestSummaryTriggersReentrantLoad(t *testing.T) {
	files := map[string]string{
		"internal/wal/wal.go": `package wal

import (
	"sync"

	"tmpmod/internal/helper"
)

type Log struct{ mu sync.Mutex }

func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return helper.WriteOut(nil)
}
`,
		"internal/helper/helper.go": `package helper

import "os"

func WriteOut(b []byte) error { return os.WriteFile("x", b, 0o644) }
`,
	}
	loader, p := loadTestModule(t, files, "internal/wal")
	// Loading wal type-checks its import, so the helper is already in:
	// two real loads, no cache traffic yet.
	if loader.Loads != 2 || loader.CacheHits != 0 {
		t.Fatalf("before analysis: Loads=%d CacheHits=%d, want 2/0", loader.Loads, loader.CacheHits)
	}
	typechecked := loader.Loads - loader.CacheHits

	findings := run(p, Analyzers(), loader.Rel)
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "lockheld") || !strings.Contains(joined, "WriteOut") {
		t.Fatalf("expected a lockheld finding for the WriteOut call, got:\n%s", joined)
	}

	// Summarizing helper.WriteOut re-requested internal/helper; that
	// re-entrant load must be a cache hit, never a second typecheck.
	if loader.CacheHits == 0 {
		t.Fatalf("summary pass did not go through the loader: CacheHits=%d", loader.CacheHits)
	}
	if misses := loader.Loads - loader.CacheHits; misses != typechecked {
		t.Fatalf("summary pass re-typechecked a package: %d real loads, want %d", misses, typechecked)
	}
	if loader.Summaries.Computed == 0 {
		t.Fatalf("no summaries computed")
	}

	// Re-analyzing hits the memoized summaries instead of recomputing.
	computed := loader.Summaries.Computed
	summaryHits := loader.Summaries.Hits
	_ = run(p, Analyzers(), loader.Rel)
	if loader.Summaries.Computed != computed {
		t.Fatalf("second analysis recomputed summaries: %d -> %d", computed, loader.Summaries.Computed)
	}
	if loader.Summaries.Hits <= summaryHits {
		t.Fatalf("second analysis did not hit the summary cache: Hits=%d (was %d)",
			loader.Summaries.Hits, summaryHits)
	}
}

// TestSummaryCycleTerminates pins the cycle seed: mutually recursive
// functions that never block must summarize as non-blocking, and the
// computation must terminate.
func TestSummaryCycleTerminates(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/wal/cycle.go": `package wal

import "sync"

type Log struct{ mu sync.Mutex }

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func (l *Log) Check(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return even(n)
}
`,
	})
	if code != ExitClean {
		t.Fatalf("exit = %d, want clean (pure recursion is not blocking)\n%s", code, stdout)
	}
}

// TestSummaryCycleWithBlocking is the other half: a recursive pair
// where one member blocks must mark the whole cycle blocking.
func TestSummaryCycleWithBlocking(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/wal/cycle.go": `package wal

import (
	"os"
	"sync"
)

type Log struct{ mu sync.Mutex }

func ping(n int) error {
	if n == 0 {
		return os.WriteFile("x", nil, 0o644)
	}
	return pong(n - 1)
}

func pong(n int) error { return ping(n - 1) }

func (l *Log) Check(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ping(n)
}
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings (blocking cycle under lock)\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "lockheld") || !strings.Contains(stdout, "ping") {
		t.Fatalf("expected lockheld finding on the ping call:\n%s", stdout)
	}
}

// TestContractAnalyzersDeterministic runs the four dataflow analyzers
// over their committed fixtures at different GOMAXPROCS settings and
// requires byte-identical output: finding order and content must not
// depend on scheduling.
func TestContractAnalyzersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the real fixtures repeatedly")
	}
	patterns := []string{
		"./testdata/hotalloc",
		"./testdata/poolescape",
		"./testdata/lockheld",
		"./testdata/goroleak",
	}
	runText := func() string {
		var stdout, stderr bytes.Buffer
		code := Run(Options{
			Dir:      ".",
			Patterns: patterns,
			Stdout:   &stdout,
			Stderr:   &stderr,
		})
		if code != ExitFindings {
			t.Fatalf("exit = %d, want findings from the fixtures\n%s", code, stderr.String())
		}
		return stdout.String()
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var outputs []string
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		outputs = append(outputs, runText())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("output differs across GOMAXPROCS runs:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
				outputs[0], i, outputs[i])
		}
	}

	// Every one of the four analyzers must actually appear: an empty
	// determinism check proves nothing. Each line reads
	// file:line:col: analyzer: message.
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(outputs[0]), "\n") {
		fields := strings.SplitN(line, ": ", 3)
		if len(fields) != 3 {
			t.Fatalf("malformed finding line %q", line)
		}
		seen[fields[1]] = true
	}
	for _, name := range []string{"hotalloc", "poolescape", "lockheld", "goroleak"} {
		if !seen[name] {
			t.Errorf("no %s finding in the fixture run", name)
		}
	}
}

// TestHotAllocCatchesPatchedServeHotPath is the acceptance check for
// the scope table: a deliberate allocation added to a function *named
// like* the real hot path — Server.processBinBatch in a package whose
// module-relative path is internal/serve — is caught with no annotation
// in sight.
func TestHotAllocCatchesPatchedServeHotPath(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/serve/bin.go": `package serve

import "context"

type binState struct{ resp []byte }

type binResult struct{ code int }

type Server struct{}

func (s *Server) processBinBatch(ctx context.Context, body []byte, st *binState) binResult {
	tmp := make([]byte, len(body))
	copy(tmp, body)
	st.resp = st.resp[:0]
	return binResult{code: 202}
}
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings (deliberate make on the hot path)\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "hotalloc") || !strings.Contains(stdout, "make allocates") {
		t.Fatalf("expected a hotalloc make finding:\n%s", stdout)
	}
}

// TestPoolEscapeCatchesPatchedLeak is the companion acceptance check: a
// pooled buffer stored into a package variable in a patched serve file
// is caught by poolescape.
func TestPoolEscapeCatchesPatchedLeak(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/serve/pool.go": `package serve

import "sync"

var bufs = sync.Pool{New: func() any { return make([]byte, 0, 64) }}

var lastReply []byte

func render(n int) int {
	b := bufs.Get().([]byte)
	b = append(b[:0], byte(n))
	lastReply = b
	bufs.Put(b)
	return len(lastReply)
}
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings (pooled buffer escapes to a package var)\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "poolescape") || !strings.Contains(stdout, "package variable") {
		t.Fatalf("expected a poolescape finding:\n%s", stdout)
	}
}

// TestBenchAndHandlerShareBinStateHelpers guards the satellite wiring
// in the real tree: the alloc benchmark must go through the same
// acquire/release/run helpers as the HTTP handler, so the benchmark
// measures the handler's actual pool discipline.
func TestBenchAndHandlerShareBinStateHelpers(t *testing.T) {
	for file, wants := range map[string][]string{
		"../serve/bin.go":               {"s.acquireBinState()", "s.releaseBinState(st)", "s.runBinBatch("},
		"../serve/bench_ingest_test.go": {"s.acquireBinState()", "s.releaseBinState(st)", "s.runBinBatch("},
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !bytes.Contains(data, []byte(want)) {
				t.Errorf("%s does not use %s", file, want)
			}
		}
		if strings.Contains(file, "bench") && bytes.Contains(data, []byte("binStates.Get")) {
			t.Errorf("%s still reaches into the pool directly", file)
		}
	}
}

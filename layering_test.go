package ssdfail_test

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/import_dag.golden and testdata/reach.golden")

const importDAGGolden = "testdata/import_dag.golden"

// leafPackages sit at the bottom of the graph: they import nothing from
// the module, whatever the golden says.
var leafPackages = []string{
	"internal/eval", "internal/trace", "internal/stats", "internal/parallel", "internal/faultfs", "internal/ml/vec",
	"internal/eventlog", "internal/metrics", "internal/rng",
}

// moduleEdges parses the non-test files of every package under the
// given roots and returns the sorted "pkg -> dep" edges between module
// packages, one per line.
func moduleEdges(t *testing.T, roots ...string) []string {
	t.Helper()
	seen := make(map[string]bool)
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if dep, ok := strings.CutPrefix(dep, "ssdfail/"); ok {
					seen[filepath.ToSlash(filepath.Dir(path))+" -> "+dep] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	edges := make([]string, 0, len(seen))
	for e := range seen {
		edges = append(edges, e)
	}
	slices.Sort(edges)
	return edges
}

// TestImportDAG pins the module-internal import graph of internal/ and
// cmd/: a new edge between packages is a design decision and shows up
// as a golden diff (rerun with -update to accept it). bench/ is left
// out so the benchmark can grow without touching this file.
func TestImportDAG(t *testing.T) {
	edges := moduleEdges(t, "internal", "cmd")
	for _, e := range edges {
		for _, leaf := range leafPackages {
			if strings.HasPrefix(e, leaf+" -> ") {
				t.Errorf("leaf package imports the module: %s", e)
			}
		}
	}
	got := []byte(strings.Join(edges, "\n") + "\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(importDAGGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(importDAGGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d edges)", importDAGGolden, len(edges))
		return
	}
	want, err := os.ReadFile(importDAGGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantEdges := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, e := range edges {
		if !slices.Contains(wantEdges, e) {
			t.Errorf("new import edge: %s", e)
		}
	}
	for _, e := range wantEdges {
		if !slices.Contains(edges, e) {
			t.Errorf("golden edge gone: %s", e)
		}
	}
}

// TestDaemonsLinkOnlyWhatTheyRun pins what each daemon links. A daemon
// with a want list links exactly those packages; one with a never list
// links none of them. The router splits, forwards and merges; the
// load generator builds and sends records; the serving daemon scores
// with a saved predictor and never simulates, extracts a study or
// evaluates; the trainer fits and publishes models without the
// daemon's store, WAL or remediation.
func TestDaemonsLinkOnlyWhatTheyRun(t *testing.T) {
	deps := make(map[string][]string)
	for _, e := range moduleEdges(t, "internal", "cmd") {
		from, to, _ := strings.Cut(e, " -> ")
		deps[from] = append(deps[from], to)
	}
	for _, c := range []struct {
		cmd         string
		want, never []string
	}{
		{cmd: "ssdrouter", want: []string{"internal/cluster", "internal/eventlog", "internal/metrics", "internal/trace"}},
		{cmd: "ssdload", want: []string{"internal/fleetsim", "internal/loadgen", "internal/parallel", "internal/rng", "internal/trace"}},
		{cmd: "ssdserved", never: []string{"internal/core", "internal/fleetsim", "internal/eval", "internal/expgrid", "internal/experiments"}},
		{cmd: "ssdtrain", never: []string{"internal/serve", "internal/wal", "internal/faultfs", "internal/remedy", "internal/sparepool", "internal/core"}},
	} {
		reached := map[string]bool{}
		var visit func(pkg string)
		visit = func(pkg string) {
			for _, dep := range deps[pkg] {
				if !reached[dep] {
					reached[dep] = true
					visit(dep)
				}
			}
		}
		visit("cmd/" + c.cmd)
		got := make([]string, 0, len(reached))
		for pkg := range reached {
			got = append(got, pkg)
		}
		slices.Sort(got)
		if c.want != nil && !slices.Equal(got, c.want) {
			t.Errorf("%s links %v, want %v", c.cmd, got, c.want)
		}
		for _, pkg := range c.never {
			if reached[pkg] {
				t.Errorf("%s links %s", c.cmd, pkg)
			}
		}
	}
}

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

var updateGolden = flag.Bool("update", false, "rewrite testdata/import_dag.golden")

const importDAGGolden = "testdata/import_dag.golden"

// leafPackages sit at the bottom of the graph: they import nothing from
// the module, whatever the golden says.
var leafPackages = []string{
	"internal/eval", "internal/trace", "internal/stats", "internal/parallel", "internal/faultfs", "internal/ml/vec",
	"internal/eventlog",
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

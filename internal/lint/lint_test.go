package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches type-checked stdlib packages across tests; the
// fixture packages themselves are tiny.
var sharedLoader *Loader

func loaderForModule(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		root, module, err := FindModule(".")
		if err != nil {
			t.Fatalf("FindModule: %v", err)
		}
		sharedLoader = NewLoader(root, module)
	}
	return sharedLoader
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants maps line number -> expected message substrings for every
// fixture file in dir.
func parseWants(t *testing.T, dir string) map[int][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	wants := map[int][]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants[i+1] = append(wants[i+1], m[1])
			}
		}
	}
	return wants
}

// TestAnalyzerFixtures runs every analyzer over its testdata package
// and checks findings against the inline want annotations: each
// annotated line must produce a matching finding, unannotated lines
// must stay clean, and //ssdlint:allow lines must be suppressed.
func TestAnalyzerFixtures(t *testing.T) {
	loader := loaderForModule(t)
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			path := loader.Module + "/internal/lint/testdata/" + a.Name
			p, err := loader.Load(path)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			raw := run(p, []*Analyzer{a}, loader.Rel)
			allows, misuse := collectAllows(p, known, loader.Rel)
			if len(misuse) != 0 {
				t.Fatalf("fixture has malformed allow directives: %v", misuse)
			}
			var got []Finding
			for _, f := range raw {
				if !suppressed(f, allows) {
					got = append(got, f)
				}
			}
			wants := parseWants(t, p.Dir)
			if len(wants) == 0 {
				t.Fatalf("fixture for %s has no want annotations", a.Name)
			}
			matched := map[int]int{}
			for _, f := range got {
				subs, ok := wants[f.Line]
				if !ok {
					t.Errorf("unexpected finding on unannotated line: %s", f)
					continue
				}
				found := false
				for _, sub := range subs {
					if strings.Contains(f.Message, sub) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("finding on line %d does not match wants %q: %s", f.Line, subs, f)
				}
				matched[f.Line]++
			}
			for line, subs := range wants {
				if matched[line] < len(subs) {
					t.Errorf("line %d: want %d finding(s) matching %q, got %d",
						line, len(subs), subs, matched[line])
				}
			}
		})
	}
}

// TestFixturesFailViaCLI proves the acceptance contract: pointing the
// driver at each analyzer's fixture package exits nonzero, with the
// expected analyzer named in the output.
func TestFixturesFailViaCLI(t *testing.T) {
	loader := loaderForModule(t)
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := Run(Options{
				Dir:      loader.Root,
				Patterns: []string{"./internal/lint/testdata/" + a.Name},
				Stdout:   &stdout,
				Stderr:   &stderr,
			})
			if code != ExitFindings {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, ExitFindings, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), a.Name+":") {
				t.Fatalf("stdout does not attribute findings to %s:\n%s", a.Name, stdout.String())
			}
		})
	}
}

// writeTestModule materializes a throwaway module so suppression and
// scoping can be tested against controlled
// sources. files maps module-relative paths to contents.
func writeTestModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const clockProgram = `package fleetsim

import "time"

func Stamp() time.Time { return time.Now() }
`

func TestScopingLimitsAnalyzers(t *testing.T) {
	// The same wall-clock read is a finding inside the determinism
	// scope and silence outside it.
	for _, tc := range []struct {
		rel  string
		want int
	}{
		{"internal/fleetsim/clock.go", ExitFindings},
		{"internal/report/clock.go", ExitClean},
	} {
		root := writeTestModule(t, map[string]string{tc.rel: strings.Replace(clockProgram, "fleetsim", filepath.Base(filepath.Dir(tc.rel)), 1)})
		var stdout, stderr bytes.Buffer
		code := Run(Options{Dir: root, Patterns: []string{"./..."}, Stdout: &stdout, Stderr: &stderr})
		if code != tc.want {
			t.Errorf("%s: exit = %d, want %d\nstdout: %s\nstderr: %s",
				tc.rel, code, tc.want, stdout.String(), stderr.String())
		}
	}
}

func TestLoadgenScopeIsFileScoped(t *testing.T) {
	// internal/loadgen is only under the nondeterminism contract for
	// schedule.go; run.go measures real latencies and may read time.
	root := writeTestModule(t, map[string]string{
		"internal/loadgen/schedule.go": "package loadgen\n\nimport \"time\"\n\nfunc A() time.Time { return time.Now() }\n",
		"internal/loadgen/run.go":      "package loadgen\n\nimport \"time\"\n\nfunc B() time.Time { return time.Now() }\n",
	})
	var stdout, stderr bytes.Buffer
	code := Run(Options{Dir: root, Patterns: []string{"./..."}, Stdout: &stdout, Stderr: &stderr})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "schedule.go") {
		t.Errorf("schedule.go violation not reported:\n%s", out)
	}
	if strings.Contains(out, "run.go") {
		t.Errorf("run.go flagged despite being outside the schedule-construction scope:\n%s", out)
	}
}

// TestOneWallClockCallOneFinding: the nondeterminism and clockpath
// scopes do not overlap, so one direct time.Now() call is exactly one
// finding wherever it sits, and one allow directive silences it.
func TestOneWallClockCallOneFinding(t *testing.T) {
	for _, tc := range []struct{ pkg, analyzer string }{
		{"remedy", "nondeterminism"},
		{"learn", "nondeterminism"},
		{"serve", "clockpath"},
		{"cluster", "clockpath"},
	} {
		code, stdout, _ := runOnModule(t, map[string]string{
			"internal/" + tc.pkg + "/clock.go": "package " + tc.pkg +
				"\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n",
		})
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		if code != ExitFindings || len(lines) != 1 || !strings.Contains(lines[0], " "+tc.analyzer+": ") {
			t.Errorf("internal/%s: exit %d, want exactly one %s finding, got:\n%s",
				tc.pkg, code, tc.analyzer, stdout)
		}
	}
}

// TestHotAllocScopeIsTheTable: a function comes under hotalloc only by
// its entry in hotPathFuncs — a doc-comment annotation does nothing —
// and every entry names a function its package still declares, so a
// rename cannot silently drop a hot path out of the contract.
func TestHotAllocScopeIsTheTable(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/codec/codec.go": `package codec

// Encode is not in the scope table.
//
//ssdlint:hotpath an annotation puts nothing under the contract
func Encode(n int) []byte { return make([]byte, n) }
`,
	})
	if code != ExitClean {
		t.Fatalf("exit = %d, want clean: only the scope table names hot paths\n%s", code, stdout)
	}

	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for pkg, funcs := range hotPathFuncs {
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		declared := map[string]bool{}
		fset := token.NewFileSet()
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declared[funcKey(fd)] = true
				}
			}
		}
		for fn := range funcs {
			if !declared[fn] {
				t.Errorf("hotPathFuncs[%q] names %s, which the package does not declare", pkg, fn)
			}
		}
	}
}

func TestMainModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint typechecks net/http from source; skipped in -short")
	}
	loader := loaderForModule(t)
	var stdout, stderr bytes.Buffer
	code := Run(Options{
		Dir:      loader.Root,
		Patterns: []string{"./..."},
		Stdout:   &stdout,
		Stderr:   &stderr,
	})
	if code != ExitClean {
		t.Fatalf("ssdlint ./... = exit %d, want clean\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestLoadersShareStdlibConcurrently loads one module package through two
// loaders at once. Every loader resolves the standard library through the
// one process-wide importer, which must serialize them and hand both the
// same type-checked packages.
func TestLoadersShareStdlibConcurrently(t *testing.T) {
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	pkgs := make([]*Package, 2)
	errs := make([]error, 2)
	for i := range pkgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs[i], errs[i] = NewLoader(root, module).Load(module + "/internal/eventlog")
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stdlib := func(p *Package, path string) *types.Package {
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == path {
				return imp
			}
		}
		t.Fatalf("%s does not import %s", p.Pkg.Path(), path)
		return nil
	}
	if stdlib(pkgs[0], "fmt") != stdlib(pkgs[1], "fmt") {
		t.Fatal("two loaders type-checked fmt separately")
	}
}

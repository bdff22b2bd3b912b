package ssdfail_test

import (
	"bytes"
	"debug/elf"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const reachGolden = "testdata/reach.golden"

// Reach tags, in the order a function is claimed: a function the
// benchmark links is "bench" even when an example links it too.
const (
	tagBench    = "bench"
	tagExample  = "example"
	tagUnlinked = "unlinked"
)

// internalDecls returns every function declared in a non-test file
// under internal/ that a linux/amd64 build compiles, as written
// ("internal/pkg.Name", "internal/pkg.Recv.Name" or
// "internal/pkg.(*Recv).Name"), keyed as symbolDecl maps linker symbols:
// the same with the receiver's pointer dropped. testdata trees (the
// linter's fixtures) and init functions, which no code can name, are
// left out.
func internalDecls(t *testing.T) map[string]string {
	t.Helper()
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", "amd64", false
	decls := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
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
		if ok, err := ctx.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			if fn.Recv == nil {
				name := pkg + "." + fn.Name.Name
				decls[name] = name
				continue
			}
			recv, star := fn.Recv.List[0].Type, false
			if s, ok := recv.(*ast.StarExpr); ok {
				recv, star = s.X, true
			}
			switch x := recv.(type) {
			case *ast.IndexExpr:
				recv = x.X
			case *ast.IndexListExpr:
				recv = x.X
			}
			typ := recv.(*ast.Ident).Name
			key := pkg + "." + typ + "." + fn.Name.Name
			decls[key] = key
			if star {
				decls[key] = pkg + ".(*" + typ + ")." + fn.Name.Name
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// stripInstantiation removes every bracketed type-argument list,
// nested ones too: "(*Log[go.shape.struct { A []int }]).Append" reads
// "(*Log).Append".
func stripInstantiation(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// symbolDecl maps a linker text symbol to the key of the declaration
// whose code it is, or "" when it is no function under internal/:
// instantiations keep their generic function, and closures
// (".func1", ".gowrap1", ".deferwrap1", "-range1"), method values
// ("-fm") and pointer-receiver wrappers keep the function they belong
// to. decls settles whether "F.X" is method X of type F or a closure
// inside function F.
func symbolDecl(sym string, decls map[string]string) string {
	rest, ok := strings.CutPrefix(stripInstantiation(sym), "ssdfail/")
	if !ok || !strings.HasPrefix(rest, "internal/") {
		return ""
	}
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash:], '.')
	if dot < 0 {
		return ""
	}
	pkg, rest := rest[:slash+dot], rest[slash+dot+1:]
	if strings.HasPrefix(rest, "(") {
		recv, method, ok := strings.Cut(rest[1:], ").")
		if !ok {
			return ""
		}
		rest = strings.TrimPrefix(recv, "*") + "." + method
	}
	segs := strings.FieldsFunc(rest, func(r rune) bool { return r == '.' || r == '-' })
	if len(segs) == 0 {
		return ""
	}
	if len(segs) > 1 {
		if key := pkg + "." + segs[0] + "." + segs[1]; decls[key] != "" {
			return key
		}
	}
	if key := pkg + "." + segs[0]; decls[key] != "" {
		return key
	}
	return ""
}

// linkedDecls returns the keys of the declarations whose code the
// binary at path holds, read from its ELF symbol table (the table
// `go tool nm` prints; text symbols are its function symbols).
func linkedDecls(t *testing.T, path string, decls map[string]string) map[string]bool {
	t.Helper()
	f, err := elf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	linked := make(map[string]bool)
	for _, s := range syms {
		if elf.ST_TYPE(s.Info) != elf.STT_FUNC {
			continue
		}
		if key := symbolDecl(s.Name, decls); key != "" {
			linked[key] = true
		}
	}
	return linked
}

// TestReachGolden pins which functions under internal/ no command
// links. It builds every cmd/* program, the benchmark driver and every
// example for linux/amd64 with inlining off, so each function called
// keeps its own symbol, and lists each declaration absent from all the
// cmd/* binaries, tagged by what links it: "bench" (bench/cmd/ssdbench),
// "example" (an examples/* program) or "unlinked" (nothing but tests).
// A new "unlinked" entry is code no binary runs and needs a reason to
// stay; rerun with -update to accept a change.
func TestReachGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program")
	}
	decls := internalDecls(t)
	tags := map[string]string{"ssdbench": tagBench}
	for dir, tag := range map[string]string{"cmd": "", "examples": tagExample} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				tags[e.Name()] = tag
			}
		}
	}
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator),
		"./cmd/...", "./bench/cmd/ssdbench", "./examples/...")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	claimed := make(map[string]string) // decl key -> tag of its first linker, "" for cmd/*
	for _, tag := range []string{"", tagBench, tagExample} {
		for name, tg := range tags {
			if tg != tag {
				continue
			}
			for key := range linkedDecls(t, filepath.Join(bin, name), decls) {
				if _, ok := claimed[key]; !ok {
					claimed[key] = tag
				}
			}
		}
	}
	tagOf := make(map[string]string) // declaration as written -> tag
	var names []string
	for key, name := range decls {
		tag, ok := claimed[key]
		switch {
		case !ok:
			tag = tagUnlinked
		case tag == "":
			continue
		}
		tagOf[name] = tag
		names = append(names, name)
	}
	slices.Sort(names)
	lines := make([]string, len(names))
	for i, name := range names {
		lines[i] = fmt.Sprintf("%-8s %s", tagOf[name], name)
	}
	got := []byte(strings.Join(lines, "\n") + "\n")
	if *updateGolden {
		if err := os.WriteFile(reachGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d functions)", reachGolden, len(lines))
		return
	}
	want, err := os.ReadFile(reachGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("not in %s: %s", reachGolden, l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			t.Errorf("in %s, no longer so: %s", reachGolden, l)
		}
	}
}

func TestSymbolDecl(t *testing.T) {
	decls := map[string]string{}
	for _, k := range []string{
		"internal/eventlog.New", "internal/eventlog.Log.Append", "internal/stats.Mean",
		"internal/serve.Server.handleIngest", "internal/cluster.Router.Forward",
	} {
		decls[k] = k
	}
	for _, c := range []struct{ sym, want string }{
		{"ssdfail/internal/eventlog.New[go.shape.struct { A []int; B map[string][2]int }]", "internal/eventlog.New"},
		{"ssdfail/internal/eventlog.(*Log[go.shape.struct { ssdfail/internal/remedy.X [4]uint8 }]).Append", "internal/eventlog.Log.Append"},
		{"ssdfail/internal/stats.Mean", "internal/stats.Mean"},
		{"ssdfail/internal/stats.Mean.func1.2", "internal/stats.Mean"},
		{"ssdfail/internal/serve.(*Server).handleIngest.gowrap1", "internal/serve.Server.handleIngest"},
		{"ssdfail/internal/serve.(*Server).handleIngest.deferwrap2", "internal/serve.Server.handleIngest"},
		{"ssdfail/internal/serve.(*Server).handleIngest-fm", "internal/serve.Server.handleIngest"},
		{"ssdfail/internal/cluster.Router.Forward-range1", "internal/cluster.Router.Forward"},
		{"ssdfail/internal/cluster.(*Router).Forward.func3-range2", "internal/cluster.Router.Forward"},
		{"ssdfail/internal/stats.init.0", ""},
		{"ssdfail/internal/stats.Gone", ""},
		{"ssdfail/cmd/ssdserved.main", ""},
		{"runtime.main", ""},
	} {
		if got := symbolDecl(c.sym, decls); got != c.want {
			t.Errorf("symbolDecl(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path. The linter resolves this
// module's own import paths itself — the stdlib source importer only
// knows GOROOT — so the module identity anchors everything.
func FindModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(name), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Loader parses and type-checks packages of one module. Imports inside
// the module are resolved against the module root and analyzed from
// source; everything else (the standard library) is delegated to the
// process-wide stdlib source importer, keeping go.mod at zero requires.
type Loader struct {
	Fset   *token.FileSet
	Root   string
	Module string

	// Summaries is the loader-wide call-effect summary cache shared by
	// the dataflow analyzers, memoized with the same lifetime as the
	// package cache so a function is summarized at most once per run.
	Summaries *SummaryCache

	// Loads counts Load calls; CacheHits counts the ones answered from
	// the memo. Re-entrant loads triggered by summary computation show
	// up here, which is what the loader accounting tests assert on.
	Loads, CacheHits int

	cache map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
}

// Type-checking the standard library from source dominates a load, and
// its result never changes within a process, so every Loader shares one
// FileSet and one stdlib importer. The importer is not safe for
// concurrent use; stdMu serializes it.
var (
	sharedFset = token.NewFileSet()
	stdMu      sync.Mutex
	stdImp     = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
)

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, module string) *Loader {
	l := &Loader{
		Fset:   sharedFset,
		Root:   root,
		Module: module,
		cache:  map[string]*loadEntry{},
	}
	l.Summaries = newSummaryCache(l)
	return l
}

// Dir maps an import path inside the module to its directory.
func (l *Loader) Dir(importPath string) string {
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(importPath, l.Module)))
}

// inModule reports whether path belongs to this module.
func (l *Loader) inModule(path string) bool {
	return path == l.Module || strings.HasPrefix(path, l.Module+"/")
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom for the hybrid resolution
// described on Loader.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if !l.inModule(path) {
		stdMu.Lock()
		defer stdMu.Unlock()
		return stdImp.ImportFrom(path, srcDir, mode)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// Load parses and type-checks one module package (memoized). Test files
// are excluded: the determinism and durability contracts bind the code
// that ships, and test-only randomness is the tests' own business.
func (l *Loader) Load(importPath string) (*Package, error) {
	l.Loads++
	if e, ok := l.cache[importPath]; ok {
		l.CacheHits++
		return e.pkg, e.err
	}
	// Seed the cache entry first so import cycles fail fast instead of
	// recursing forever.
	entry := &loadEntry{err: fmt.Errorf("lint: import cycle through %s", importPath)}
	l.cache[importPath] = entry
	pkg, err := l.loadUncached(importPath)
	entry.pkg, entry.err = pkg, err
	return pkg, err
}

func (l *Loader) loadUncached(importPath string) (*Package, error) {
	dir := l.Dir(importPath)
	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s holds two packages: %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:   importPath,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Pkg:    tpkg,
		Info:   info,
		loader: l,
	}, nil
}

// goSourceFiles lists the non-test Go files of dir that the default
// build context would compile, sorted so findings come out in a stable
// order.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, _ := ctxt.MatchFile(dir, name); !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ExpandPatterns resolves command-line package patterns — "./...",
// "./internal/serve", "internal/serve/...", absolute or module-rooted
// import paths — into module import paths. The "..." walk skips
// testdata, vendor, and hidden or underscore directories, matching the
// go tool; naming a testdata directory explicitly still works, which is
// how the analyzer fixtures are linted on purpose.
func (l *Loader) ExpandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		var dir string
		switch {
		case pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") || filepath.IsAbs(pat):
			dir = filepath.Join(cwd, pat)
			if filepath.IsAbs(pat) {
				dir = pat
			}
		case l.inModule(pat):
			dir = l.Dir(pat)
		default:
			// A module-relative path like internal/serve.
			dir = filepath.Join(l.Root, filepath.FromSlash(pat))
		}
		dir, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", pat, l.Module)
		}
		importOf := func(d string) string {
			r, _ := filepath.Rel(l.Root, d)
			if r == "." {
				return l.Module
			}
			return l.Module + "/" + filepath.ToSlash(r)
		}
		if !recursive {
			names, err := goSourceFiles(dir)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("lint: no Go source files in %s", dir)
			}
			add(importOf(dir))
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != dir && (base == "testdata" || base == "vendor" ||
				strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if names, err := goSourceFiles(path); err == nil && len(names) > 0 {
				add(importOf(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rel maps an absolute filename to a module-relative slash path, the
// form findings and baseline entries use so they are stable across
// checkouts.
func (l *Loader) Rel(filename string) string {
	rel, err := filepath.Rel(l.Root, filename)
	if err != nil {
		return filename
	}
	return filepath.ToSlash(rel)
}

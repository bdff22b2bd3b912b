// Package lint implements ssdlint, a dependency-free static-analysis
// pass over this module built on the standard library's go/parser,
// go/ast, and go/types. It enforces the source-level contracts the
// paper reproduction depends on:
//
//   - nondeterminism: the experiment pipeline (fleetsim, dataset, ml,
//     expgrid, experiments, loadgen schedule construction), the
//     remediation engine and the learning loop must produce
//     bit-identical outputs at any worker count, so wall-clock reads
//     and global math/rand draws are banned there — only injected
//     clocks and key-derived seeds are legal.
//   - maporder: iterating a Go map feeds emission (appends, writers,
//     encoders, hashes) in a random order; without an intervening sort
//     that quietly destroys schedule hashes and byte-equality goldens.
//   - droppederr: in internal/wal and internal/serve a swallowed error
//     from Sync, Flush, Close, or Write is a durability hole — an
//     fsync failure the operator never hears about.
//   - clockpath: internal/serve and internal/cluster route time through
//     an injected clock seam so frozen-clock tests cover every handler;
//     direct time.Now()/time.Since() calls bypass it.
//
// Four further analyzers are built on a per-function CFG and forward
// dataflow framework (cfg.go) with memoized call-effect summaries
// (summary.go):
//
//   - hotalloc: allocation sites in the functions the zero-alloc scope
//     table names, with CFG-detected error paths exempt.
//   - poolescape: sync.Pool values escaping their Get/Put ownership
//     window, or used after Put, tracked as taint through the CFG.
//   - lockheld: blocking operations reachable while a sync.Mutex or
//     RWMutex is held, with defer-unlock recognized and module calls
//     classified through the summaries.
//   - goroleak: goroutines in the long-running daemon packages with no
//     visible lifecycle signal.
//
// Findings can be suppressed inline with
//
//	//ssdlint:allow <analyzer> <reason>
//
// on (or immediately above) the offending line; every other finding
// fails the run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// A Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	File     string // module-relative path
	Line     int
	Col      int
	Message  string
}

// String renders the finding in the classic file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// A Package is one loaded, type-checked package handed to analyzers.
type Package struct {
	Path  string // import path, e.g. ssdfail/internal/serve
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// loader is the Loader that produced this package; the dataflow
	// analyzers reach the shared call-effect summary cache through it.
	loader *Loader
}

// Summaries returns the call-effect summary cache shared by every
// package of this loader.
func (p *Package) Summaries() *SummaryCache {
	return p.loader.Summaries
}

// An Analyzer is one named check. Check is only invoked for files the
// analyzer's scope admits; report attributes the finding.
type Analyzer struct {
	Name string
	Doc  string
	// InScope reports whether the analyzer applies to the given file of
	// the given package. Fixture packages under a testdata/<name>
	// directory are always in scope for analyzer <name>, so the
	// committed fixtures exercise every analyzer end to end.
	InScope func(pkgPath, filename string) bool
	Check   func(p *Package, inScope func(*ast.File) bool, report func(pos token.Pos, msg string))
}

// Analyzers returns the full analyzer set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer(),
		MapOrderAnalyzer(),
		DroppedErrAnalyzer(),
		ClockPathAnalyzer(),
		HotAllocAnalyzer(),
		PoolEscapeAnalyzer(),
		LockHeldAnalyzer(),
		GoroLeakAnalyzer(),
	}
}

// AnalyzerNames returns the known analyzer names in stable order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// run applies every analyzer to one package and returns raw findings
// (suppressions are applied by the caller).
func run(p *Package, analyzers []*Analyzer, rel func(string) string) []Finding {
	var out []Finding
	for _, a := range analyzers {
		inScope := func(f *ast.File) bool {
			return a.InScope(p.Path, p.Fset.Position(f.Pos()).Filename)
		}
		any := false
		for _, f := range p.Files {
			if inScope(f) {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		a.Check(p, inScope, func(pos token.Pos, msg string) {
			position := p.Fset.Position(pos)
			out = append(out, Finding{
				Analyzer: a.Name,
				File:     rel(position.Filename),
				Line:     position.Line,
				Col:      position.Column,
				Message:  msg,
			})
		})
	}
	return out
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// randConstructors are the math/rand(/v2) package-level functions that
// build explicit sources or generators instead of drawing from the
// global source. Calling them with a fixed or key-derived seed is the
// legal pattern; everything else at package level uses the global
// source and is banned in deterministic packages.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewChaCha8": true, "NewZipf": true,
}

// NondeterminismAnalyzer flags wall-clock reads (time.Now, time.Since),
// global math/rand draws (package-level rand.* like rand.Int or
// rand.Shuffle), and rand sources seeded from the clock inside the
// packages under the determinism contract. Those packages must produce
// bit-identical outputs for a given seed at any worker count; one stray
// time.Now in a hot path silently breaks that until a golden test
// happens to notice.
func NondeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "nondeterminism",
		Doc: "flags time.Now, global math/rand draws, and clock-seeded rand sources " +
			"in the deterministic packages (fleetsim, dataset, ml, expgrid, experiments, " +
			"remedy, learn, loadgen schedule construction)",
		InScope: scopePackages("nondeterminism", deterministicPkgs, deterministicFiles),
		Check:   checkNondeterminism,
	}
}

// timeFunc returns "Now" or "Since" when obj is that function of
// package time, else "".
func timeFunc(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	if n := fn.Name(); n == "Now" || n == "Since" {
		return n
	}
	return ""
}

// globalRandFunc returns the function name when obj is a package-level
// function of math/rand or math/rand/v2 (not a method on *rand.Rand),
// else "".
func globalRandFunc(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	return fn.Name()
}

// useOf resolves the object an identifier or selector refers to.
func useOf(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

func checkNondeterminism(p *Package, inScope func(*ast.File) bool, report func(pos token.Pos, msg string)) {
	for _, file := range p.Files {
		if !inScope(file) {
			continue
		}
		// handled marks nodes a more specific finding (or an enclosing
		// selector) already covered, so one time.Now yields exactly one
		// finding. The walk is pre-order: a rand.NewSource(time.Now())
		// call is seen before the time.Now inside it, and a selector
		// before its Sel identifier.
		handled := map[ast.Node]bool{}
		cover := func(n ast.Node) {
			handled[n] = true
			if sel, ok := n.(*ast.SelectorExpr); ok {
				handled[sel.Sel] = true
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := useOf(p.Info, n.Fun)
				if name := globalRandFunc(obj); name != "" && randConstructors[name] {
					for _, arg := range n.Args {
						ast.Inspect(arg, func(m ast.Node) bool {
							e, ok := m.(ast.Expr)
							if !ok || timeFunc(useOf(p.Info, e)) == "" {
								return true
							}
							if !handled[m] {
								cover(m)
								report(n.Pos(), fmt.Sprintf(
									"rand.%s seeded from the wall clock; derive the seed from the experiment key instead",
									name))
							}
							return false
						})
					}
				}
			case *ast.SelectorExpr:
				if handled[n] {
					cover(n)
					return true
				}
				obj := p.Info.Uses[n.Sel]
				if name := timeFunc(obj); name != "" {
					cover(n)
					report(n.Pos(), fmt.Sprintf(
						"wall clock read (time.%s) in a deterministic package; only injected clocks are allowed",
						name))
					return true
				}
				if name := globalRandFunc(obj); name != "" && !randConstructors[name] {
					cover(n)
					report(n.Pos(), fmt.Sprintf(
						"global math/rand source used (rand.%s) in a deterministic package; draw from a key-seeded rand.New(...) instead",
						name))
				}
			case *ast.Ident:
				// Dot-imported references reach these functions without
				// a selector; Uses still resolves them.
				if handled[n] {
					return true
				}
				if name := timeFunc(p.Info.Uses[n]); name != "" {
					report(n.Pos(), fmt.Sprintf(
						"wall clock read (time.%s) in a deterministic package; only injected clocks are allowed",
						name))
				}
			}
			return true
		})
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// clockPkgs is the clockpath scope: the serving daemon, whose
// clock-injection seam (serve.Config.Clock) exists precisely so that
// frozen-clock tests cover every handler's latency and age metrics, and
// the cluster tier, whose failover decisions are keyed to probe rounds
// (so partition scenarios replay byte-identically) and whose only time
// dependencies are injected intervals and context deadlines, never a
// wall-clock read. The remediation engine and the learning loop are
// held to the stricter nondeterminism contract instead, which already
// flags every wall-clock read there; listing them here too would report
// each such read twice.
var clockPkgs = []string{
	"internal/serve",
	"internal/cluster",
}

// ClockPathAnalyzer flags direct wall-clock reads — time.Now() or
// time.Since() calls — in the clock-disciplined packages. Taking
// time.Now as a value (the `if clock == nil { clock = time.Now }`
// default) IS the injection seam and stays legal; calling it directly
// bypasses the seam and makes the code untestable under a frozen clock.
func ClockPathAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "clockpath",
		Doc: "flags direct time.Now()/time.Since() calls in clock-disciplined packages " +
			"(internal/serve, internal/cluster) outside the clock-injection seam " +
			"(binding time.Now as a default is the seam)",
		InScope: scopePackages("clockpath", clockPkgs, nil),
		Check:   checkClockPath,
	}
}

func checkClockPath(p *Package, inScope func(*ast.File) bool, report func(pos token.Pos, msg string)) {
	for _, file := range p.Files {
		if !inScope(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := timeFunc(useOf(p.Info, call.Fun)); name != "" {
				report(call.Pos(), fmt.Sprintf(
					"direct wall-clock read time.%s() in %s; route it through an injected clock (serve.Config.Clock)",
					name, modRel(p.Path)))
			}
			return true
		})
	}
}

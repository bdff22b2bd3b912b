package lint

import (
	"path/filepath"
	"strings"
)

// The determinism contract (DESIGN.md §12): packages whose outputs must
// be bit-identical run-to-run and at any worker count. Wall-clock reads
// and global rand draws are banned here outright.
var deterministicPkgs = []string{
	// The one seeded generator every simulator, sampler and classifier
	// draws from.
	"internal/rng",
	"internal/fleetsim",
	"internal/dataset",
	"internal/ml",
	// The served predictor: its SSDP bytes and scores are pinned by a
	// committed fixture.
	"internal/model",
	"internal/expgrid",
	"internal/experiments",
	"internal/remedy",
	// The decision log behind remedy, learn, and the cluster tracker:
	// its sink bytes are the committed .eventlog goldens.
	"internal/eventlog",
	// The continuous-learning loop: its decision log and retrained
	// model bytes are pinned by committed goldens, so the whole engine
	// — including the tailer glue — must be free of wall-clock reads
	// and global rand draws. Its only time dependencies are injected
	// poll intervals.
	"internal/learn",
}

// deterministicFiles extends the contract to single files of packages
// that otherwise legitimately touch the wall clock: loadgen's schedule
// construction must be seed-derived (its SHA-256 schedule hash is a
// conformance artifact), while loadgen's run loop measures real
// latencies and may read real time.
var deterministicFiles = map[string][]string{
	"internal/loadgen": {"schedule.go"},
}

// modRel strips the module path's leading segment from an import path:
// ssdfail/internal/serve -> internal/serve. The module path has a
// single segment, so this needs no go.mod lookup.
func modRel(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}

// underPkg reports whether rel is pkg or a subpackage of it.
func underPkg(rel, pkg string) bool {
	return rel == pkg || strings.HasPrefix(rel, pkg+"/")
}

// fixtureScope handles testdata fixture packages: a package under a
// testdata/ directory is in scope only for the analyzer the directory
// is named after, so `go run ./cmd/ssdlint ./internal/lint/testdata/maporder`
// exercises exactly that analyzer. Returns handled=false for normal
// packages.
func fixtureScope(analyzer, pkgPath string) (handled, inScope bool) {
	if i := strings.Index(pkgPath, "/testdata/"); i >= 0 {
		return true, pkgPath[i+len("/testdata/"):] == analyzer
	}
	return false, false
}

// scopePackages builds an InScope function from a package list (plus
// the per-file extension table, when given).
func scopePackages(analyzer string, pkgs []string, files map[string][]string) func(pkgPath, filename string) bool {
	return func(pkgPath, filename string) bool {
		if handled, ok := fixtureScope(analyzer, pkgPath); handled {
			return ok
		}
		rel := modRel(pkgPath)
		for _, p := range pkgs {
			if underPkg(rel, p) {
				return true
			}
		}
		for _, base := range files[rel] {
			if filepath.Base(filename) == base {
				return true
			}
		}
		return false
	}
}

// scopeAll admits every package in the module (fixtures still only for
// the analyzer's own directory).
func scopeAll(analyzer string) func(pkgPath, filename string) bool {
	return func(pkgPath, filename string) bool {
		if handled, ok := fixtureScope(analyzer, pkgPath); handled {
			return ok
		}
		return true
	}
}

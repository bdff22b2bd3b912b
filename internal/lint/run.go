package lint

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// Options configures one linter run.
type Options struct {
	// Dir anchors module discovery and relative patterns (the process
	// working directory in the CLI).
	Dir string
	// Patterns are package patterns: ./..., ./internal/serve,
	// internal/wal/..., or full import paths.
	Patterns []string

	Stdout, Stderr io.Writer
}

// Exit codes: 0 clean, 1 findings, 2 usage or load failure.
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// Run executes the linter, prints each finding as one file:line:col
// line in a stable order, and returns the process exit code.
func Run(opts Options) int {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	fail := func(err error) int {
		fmt.Fprintf(opts.Stderr, "ssdlint: %v\n", err)
		return ExitError
	}
	if len(opts.Patterns) == 0 {
		return fail(fmt.Errorf("no packages named; try ./..."))
	}
	root, module, err := FindModule(opts.Dir)
	if err != nil {
		return fail(err)
	}
	loader := NewLoader(root, module)
	paths, err := loader.ExpandPatterns(opts.Dir, opts.Patterns)
	if err != nil {
		return fail(err)
	}
	if len(paths) == 0 {
		return fail(fmt.Errorf("no packages matched %v", opts.Patterns))
	}

	analyzers := Analyzers()
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			return fail(err)
		}
		raw := run(p, analyzers, loader.Rel)
		allows, misuse := collectAllows(p, known, loader.Rel)
		for _, f := range raw {
			if !suppressed(f, allows) {
				findings = append(findings, f)
			}
		}
		// Directive misuse is never suppressible: a typo in an allow
		// comment must not be able to silence itself.
		findings = append(findings, misuse...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	for _, f := range findings {
		fmt.Fprintln(opts.Stdout, f)
	}
	if n := len(findings); n > 0 {
		s := "s"
		if n == 1 {
			s = ""
		}
		fmt.Fprintf(opts.Stderr, "ssdlint: %d finding%s\n", n, s)
		return ExitFindings
	}
	return ExitClean
}

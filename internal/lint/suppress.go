package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is one parsed //ssdlint:allow comment.
type allowDirective struct {
	File     string // module-relative
	Line     int
	Analyzer string
	Reason   string
	// EndLine extends the directive's coverage: when the directive sits
	// in a function declaration's doc comment, it covers every line of
	// that function's body (Line..EndLine). Zero for ordinary inline
	// directives, which cover only their own line and the next.
	EndLine int
}

const allowPrefix = "//ssdlint:allow"

// MetaAnalyzer is the pseudo-analyzer name used for diagnostics about
// ssdlint's own directives (malformed allow comments). Meta findings
// are never suppressible — a wrong analyzer name in an allow comment
// must fail loudly, not silence itself.
const MetaAnalyzer = "ssdlint"

// collectAllows scans a package's comments for allow directives,
// returning both the well-formed directives and meta findings for the
// malformed ones: an unknown analyzer name or a missing reason is an
// error, so a typo cannot silently turn a suppression into a no-op.
func collectAllows(p *Package, known map[string]bool, rel func(string) string) (allows []allowDirective, misuse []Finding) {
	report := func(pos token.Pos, msg string) {
		position := p.Fset.Position(pos)
		misuse = append(misuse, Finding{
			Analyzer: MetaAnalyzer,
			File:     rel(position.Filename),
			Line:     position.Line,
			Col:      position.Column,
			Message:  msg,
		})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "allow directive names no analyzer; want //ssdlint:allow <analyzer> <reason>")
					continue
				}
				name := fields[0]
				if !known[name] {
					report(c.Pos(), fmt.Sprintf("allow directive names unknown analyzer %q; known: %s",
						name, strings.Join(AnalyzerNames(), ", ")))
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name))
				if reason == "" {
					report(c.Pos(), fmt.Sprintf("allow directive for %q gives no reason; suppressions must be explained", name))
					continue
				}
				position := p.Fset.Position(c.Pos())
				allows = append(allows, allowDirective{
					File:     rel(position.Filename),
					Line:     position.Line,
					Analyzer: name,
					Reason:   reason,
				})
			}
		}
	}
	extendFuncLevelAllows(p, rel, allows)
	return allows, misuse
}

// extendFuncLevelAllows widens directives that live in a function
// declaration's doc comment to cover the whole declaration: helpers
// like the WAL's flushLocked are blocking-under-lock by documented
// design, and one reasoned directive on the declaration beats one per
// line. The allow-aware call summaries rely on the same range.
func extendFuncLevelAllows(p *Package, rel func(string) string, allows []allowDirective) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			docStart := p.Fset.Position(fd.Doc.Pos()).Line
			declLine := p.Fset.Position(fd.Pos()).Line
			endLine := p.Fset.Position(fd.End()).Line
			file := rel(p.Fset.Position(fd.Pos()).Filename)
			for i := range allows {
				a := &allows[i]
				if a.File == file && a.Line >= docStart && a.Line <= declLine {
					a.EndLine = endLine
				}
			}
		}
	}
}

// suppressed reports whether a finding is covered by an allow
// directive: same file, same analyzer, and the directive sits on the
// finding's line (trailing comment), the line above (standalone
// comment), or — for directives in a function's doc comment — anywhere
// in that function's declaration.
func suppressed(f Finding, allows []allowDirective) bool {
	for _, a := range allows {
		if a.Analyzer != f.Analyzer || a.File != f.File {
			continue
		}
		if a.Line == f.Line || a.Line == f.Line-1 {
			return true
		}
		if a.EndLine > 0 && a.Line <= f.Line && f.Line <= a.EndLine {
			return true
		}
	}
	return false
}

package lint

import (
	"bytes"
	"strings"
	"testing"
)

func runOnModule(t *testing.T, files map[string]string) (int, string, string) {
	t.Helper()
	root := writeTestModule(t, files)
	var stdout, stderr bytes.Buffer
	code := Run(Options{Dir: root, Patterns: []string{"./..."}, Stdout: &stdout, Stderr: &stderr})
	return code, stdout.String(), stderr.String()
}

func TestAllowSuppressesFinding(t *testing.T) {
	code, stdout, stderr := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

func Stamp() time.Time {
	//ssdlint:allow nondeterminism boot banner only, never feeds the simulation
	return time.Now()
}
`,
	})
	if code != ExitClean {
		t.Fatalf("exit = %d, want clean\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

func TestAllowTrailingComment(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

func Stamp() time.Time {
	return time.Now() //ssdlint:allow nondeterminism boot banner only
}
`,
	})
	if code != ExitClean {
		t.Fatalf("exit = %d, want clean\nstdout: %s", code, stdout)
	}
}

// TestAllowWrongAnalyzerStillFails is the contract the satellite task
// names: a typo'd analyzer name must not silently suppress anything —
// the original finding survives AND the malformed directive is itself
// a finding.
func TestAllowWrongAnalyzerStillFails(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

func Stamp() time.Time {
	//ssdlint:allow nondetreminism oops, typo in the analyzer name
	return time.Now()
}
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings", code)
	}
	if !strings.Contains(stdout, "unknown analyzer") {
		t.Errorf("malformed directive not reported:\n%s", stdout)
	}
	if !strings.Contains(stdout, "wall clock read") {
		t.Errorf("original finding was suppressed by a typo'd directive:\n%s", stdout)
	}
}

func TestAllowWithoutReasonFails(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

func Stamp() time.Time {
	//ssdlint:allow nondeterminism
	return time.Now()
}
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings", code)
	}
	if !strings.Contains(stdout, "gives no reason") {
		t.Errorf("reasonless directive not reported:\n%s", stdout)
	}
}

func TestAllowWrongLineDoesNotSuppress(t *testing.T) {
	// A detached directive — blank line between it and the function, so
	// it is not the function's doc comment — must not suppress anything.
	// (Inside a doc comment it would be a deliberate function-level
	// allow; see TestFuncLevelAllowCoversBody.)
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

//ssdlint:allow nondeterminism directive is detached from the function below

func Stamp() time.Time { return time.Now() }
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings (directive detached from the read)\n%s", code, stdout)
	}
}

func TestFuncLevelAllowCoversBody(t *testing.T) {
	// A directive inside the function's doc comment is a function-level
	// allow: it covers every finding of that analyzer in the body, even
	// lines far from the directive.
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

// Stamp reads the wall clock on purpose.
//
//ssdlint:allow nondeterminism test fixture: whole function runs off-pipeline
func Stamp() time.Time {
	a := time.Now()
	b := time.Now()
	return a.Add(time.Since(b))
}
`,
	})
	if code != ExitClean {
		t.Fatalf("exit = %d, want clean (doc-comment directive covers the body)\n%s", code, stdout)
	}
}

func TestAllowForOtherAnalyzerDoesNotSuppress(t *testing.T) {
	code, stdout, _ := runOnModule(t, map[string]string{
		"internal/fleetsim/clock.go": `package fleetsim

import "time"

func Stamp() time.Time {
	//ssdlint:allow maporder wrong analyzer for this finding
	return time.Now()
}
`,
	})
	if code != ExitFindings {
		t.Fatalf("exit = %d, want findings: an allow for a different analyzer must not suppress\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "wall clock read") {
		t.Errorf("expected the nondeterminism finding to survive:\n%s", stdout)
	}
}

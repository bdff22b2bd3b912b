package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockheldPkgs is the lock-hygiene scope: the daemon tiers that hold
// sync.Mutex/RWMutex on request and replication paths, where a blocking
// op under a lock turns one slow syscall into a convoyed server.
var lockheldPkgs = []string{
	"internal/serve",
	"internal/wal",
	"internal/cluster",
	"internal/learn",
	"internal/eventlog",
}

// LockHeldAnalyzer flags blocking operations — file and network I/O,
// time.Sleep, sync.WaitGroup.Wait, and channel operations without a
// default — reachable while a sync.Mutex or RWMutex is held, tracked
// through the per-function CFG so a lock released on one path does not
// poison another. Deferred unlocks are recognized for what they are:
// the lock stays held until the function exits, so everything after the
// defer still runs under it. Calls into module functions use the
// memoized call-effect summaries, so one hop of indirection does not
// hide the syscall.
func LockHeldAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockheld",
		Doc: "flags blocking operations (file/network I/O, time.Sleep, channel ops " +
			"without default) reachable while a sync.Mutex/RWMutex is held in " +
			"internal/{serve,wal,cluster,learn,eventlog}, CFG-tracked with defer-unlock recognized",
		InScope: scopePackages("lockheld", lockheldPkgs, nil),
		Check:   checkLockHeld,
	}
}

func checkLockHeld(p *Package, inScope func(*ast.File) bool, report func(pos token.Pos, msg string)) {
	for _, file := range p.Files {
		if !inScope(file) {
			continue
		}
		for _, body := range funcBodies(file) {
			checkLockHeldBody(p, body, report)
		}
	}
}

// funcBodies yields every function-like body of a file: declarations
// first, then literals in source order. Each body is analyzed as its
// own unit — a literal's lock state starts empty, which matches how the
// runtime actually invokes it.
func funcBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

// lockOp is one recognized mutex call.
type lockOp struct {
	key     string // receiver expression + mode, the dataflow fact
	display string // receiver expression, for messages
	acquire bool
}

// classifyLockCall recognizes x.Lock/Unlock/RLock/RUnlock on
// sync.Mutex/RWMutex (including promoted embedded mutexes, which
// resolve to the same sync methods).
func classifyLockCall(p *Package, call *ast.CallExpr) (lockOp, bool) {
	fn, ok := useOf(p.Info, call.Fun).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	recv := receiverTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockOp{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	display := exprString(p.Fset, sel.X)
	switch fn.Name() {
	case "Lock":
		return lockOp{key: display + "#w", display: display, acquire: true}, true
	case "Unlock":
		return lockOp{key: display + "#w", display: display}, true
	case "RLock":
		return lockOp{key: display + "#r", display: display, acquire: true}, true
	case "RUnlock":
		return lockOp{key: display + "#r", display: display}, true
	}
	return lockOp{}, false
}

func checkLockHeldBody(p *Package, body *ast.BlockStmt, report func(pos token.Pos, msg string)) {
	// Cheap pre-pass: a body that never locks needs no dataflow.
	locks := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := classifyLockCall(p, call); ok && op.acquire {
				locks = true
			}
		}
		return !locks
	})
	if !locks {
		return
	}

	g := buildCFG(body)
	transfer := func(n int, in factSet) factSet {
		out := in.clone()
		walkScan(g.nodes[n].scan, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := classifyLockCall(p, call); ok {
				if op.acquire {
					out[op.key] = true
				} else if !deferredNode(g.nodes[n]) {
					delete(out, op.key)
				}
			}
			return true
		})
		return out
	}
	ins := g.forward(factSet{}, transfer)

	sums := p.Summaries()
	for i, node := range g.nodes {
		if ins[i] == nil {
			continue // unreachable node
		}
		if len(ins[i]) == 0 && !scanAcquires(p, node) {
			continue // lock-free here, and the statement takes none itself
		}
		reportLockHeldNode(p, sums, node, ins[i], report)
	}
}

// deferredNode reports whether a CFG node is a defer statement — its
// unlock runs at exit, not here, so it must not kill the fact.
func deferredNode(n cfgNode) bool {
	_, ok := n.stmt.(*ast.DeferStmt)
	return ok
}

// scanAcquires reports whether the node's own statement takes a lock
// (so a blocking op later in the same statement is still caught).
func scanAcquires(p *Package, n cfgNode) bool {
	got := false
	walkScan(n.scan, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if op, ok := classifyLockCall(p, call); ok && op.acquire {
				got = true
				return false
			}
		}
		return true
	})
	return got
}

// heldNames renders the held-lock set for a message, deterministically.
func heldNames(facts factSet) string {
	seen := map[string]bool{}
	var names []string
	for k := range facts {
		key, _ := k.(string)
		name := strings.TrimSuffix(strings.TrimSuffix(key, "#w"), "#r")
		if name != "" && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// reportLockHeldNode walks one node's statement in source order,
// maintaining the held set across intra-statement lock calls, and
// reports every blocking site reached with a lock held.
func reportLockHeldNode(p *Package, sums *SummaryCache, node cfgNode, in factSet, report func(pos token.Pos, msg string)) {
	cur := in.clone()
	emit := func(pos token.Pos, what string) {
		if len(cur) == 0 {
			return
		}
		report(pos, fmt.Sprintf("%s while %s is held; release the lock first or move the operation out", what, heldNames(cur)))
	}
	// A select head carries no scan nodes; classify the statement itself.
	if sel, ok := node.stmt.(*ast.SelectStmt); ok {
		if !selectHasDefault(sel) {
			emit(sel.Pos(), "blocking select (no default)")
		}
		return
	}
	if rs, ok := node.stmt.(*ast.RangeStmt); ok && isChanExpr(p.Info, rs.X) {
		emit(rs.Pos(), "blocking range over channel")
		return
	}
	// Comm clauses belong to a select; their channel op is guarded by
	// the select's own classification above.
	if _, ok := node.stmt.(*ast.CommClause); ok {
		return
	}
	walkScan(node.scan, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if op, ok := classifyLockCall(p, m); ok {
				if op.acquire {
					cur[op.key] = true
				} else if !deferredNode(node) {
					delete(cur, op.key)
				}
				return true
			}
			if desc := sums.blockingCall(p, m); desc != "" {
				emit(m.Pos(), "blocking "+desc)
			}
		case *ast.SendStmt:
			emit(m.Pos(), "blocking channel send")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				emit(m.Pos(), "blocking channel receive")
			}
		}
		return true
	})
}

package lint

// Call-effect summaries: the contract analyzers need one interprocedural
// fact — "may this callee block?" — so that a mutex held across
// l.flushLocked() is caught even though the file write is one call away.
// Summaries are memoized per *types.Func on the loader's shared cache,
// exactly like package loads: computed once, hit-counted, and cycle-safe
// (a recursive call observes the optimistic in-progress answer, which is
// sound for a may-analysis that only ever adds blocking sites).
//
// Summaries are allow-aware: a blocking site inside a callee that
// carries a //ssdlint:allow lockheld directive (inline or function-
// level) does not make the callee blocking. That keeps suppression
// local — the WAL's flushLocked documents once that it writes under the
// group-commit lock by design, and every caller stays clean — instead
// of forcing an allow at each call site.
//
// Function literals are excluded from summaries: a literal passed to a
// caller-controlled runner executes on that runner's schedule, and its
// lock/blocking discipline is analyzed where the literal is defined,
// as its own function body.

import (
	"go/ast"
	"go/types"
)

// fileIOMethods are method names that mean file I/O on an *os.File or
// on this module's faultfs fault-injection wrappers (whose interfaces
// mirror the os.File surface).
var fileIOMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Close": true, "Seek": true,
	"Truncate": true, "ReadFrom": true, "ReadDir": true, "Stat": true,
	"Open": true, "OpenFile": true, "Create": true, "Rename": true,
	"Remove": true, "SyncDir": true, "MkdirAll": true,
}

// osBlockingFuncs are package-level os functions that hit the
// filesystem.
var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
	"WriteFile": true, "Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "ReadDir": true, "Stat": true,
	"Lstat": true, "Truncate": true, "Chtimes": true,
}

// netBlockingNames are net functions/methods that wait on the network.
var netBlockingNames = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true,
	"Listen": true, "ListenTCP": true, "ListenPacket": true, "Accept": true,
	"Read": true, "Write": true, "Close": true, "LookupHost": true,
	"LookupIP": true, "LookupAddr": true, "LookupCNAME": true,
}

// httpBlockingNames are net/http calls that perform a round trip or
// serve. Classification is by name, not by package alone: http.Header
// manipulation lives in the same package and must stay silent.
var httpBlockingNames = map[string]bool{
	"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
	"Serve": true, "ListenAndServe": true, "ListenAndServeTLS": true,
	"Shutdown": true,
}

// ioBlockingFuncs are io package conduits that block on their
// underlying reader/writer.
var ioBlockingFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true,
	"ReadAll": true, "ReadFull": true,
}

// SummaryCache memoizes per-function call effects for one Loader.
type SummaryCache struct {
	loader *Loader

	blocks     map[*types.Func]bool
	inProgress map[*types.Func]bool
	decls      map[string]map[*types.Func]*ast.FuncDecl // pkg path -> defs
	allows     map[string][]allowDirective              // pkg path -> directives

	// Computed counts summaries established by walking a body or table;
	// Hits counts memoized lookups. Tests assert on both.
	Computed, Hits int
}

func newSummaryCache(l *Loader) *SummaryCache {
	return &SummaryCache{
		loader:     l,
		blocks:     map[*types.Func]bool{},
		inProgress: map[*types.Func]bool{},
		decls:      map[string]map[*types.Func]*ast.FuncDecl{},
		allows:     map[string][]allowDirective{},
	}
}

// declOf resolves a module function to its FuncDecl and defining
// package (nil, nil when fn has no body there — interface methods).
func (c *SummaryCache) declOf(fn *types.Func) (*Package, *ast.FuncDecl) {
	if fn.Pkg() == nil || !c.loader.inModule(fn.Pkg().Path()) {
		return nil, nil
	}
	p, err := c.loader.Load(fn.Pkg().Path())
	if err != nil || p == nil {
		return nil, nil
	}
	idx, ok := c.decls[p.Path]
	if !ok {
		idx = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						idx[obj] = fd
					}
				}
			}
		}
		c.decls[p.Path] = idx
	}
	return p, idx[fn]
}

// pkgAllows returns a package's parsed allow directives (memoized).
// Malformed directives are dropped here; the run driver reports them.
func (c *SummaryCache) pkgAllows(p *Package) []allowDirective {
	if a, ok := c.allows[p.Path]; ok {
		return a
	}
	known := map[string]bool{}
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	a, _ := collectAllows(p, known, c.loader.Rel)
	c.allows[p.Path] = a
	return a
}

// Blocks reports whether calling fn may block: on I/O, the network,
// time.Sleep, a WaitGroup, or an unguarded channel operation —
// transitively through module callees, with allow-covered sites
// excluded.
func (c *SummaryCache) Blocks(fn *types.Func) bool {
	if v, ok := c.blocks[fn]; ok {
		c.Hits++
		return v
	}
	if c.inProgress[fn] {
		// Recursion or a call cycle: the optimistic answer is sound —
		// if any path through the cycle blocks, the function that owns
		// the blocking site still reports it.
		return false
	}
	c.inProgress[fn] = true
	v := c.blocksUncached(fn)
	delete(c.inProgress, fn)
	c.blocks[fn] = v
	c.Computed++
	return v
}

func (c *SummaryCache) blocksUncached(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if !c.loader.inModule(pkg.Path()) {
		return stdlibBlocking(fn) != ""
	}
	p, decl := c.declOf(fn)
	if decl == nil || decl.Body == nil {
		// A module interface method or bodyless declaration: the faultfs
		// wrappers are the file-I/O seam the WAL writes through, so
		// their os.File-shaped methods count as blocking.
		if modRel(pkg.Path()) == "internal/faultfs" && fileIOMethods[fn.Name()] {
			return true
		}
		return false
	}
	allows := c.pkgAllows(p)
	return c.bodyBlocks(p, decl.Body, allows)
}

// bodyBlocks walks one function body (literals excluded) looking for a
// blocking site not covered by a lockheld allow.
func (c *SummaryCache) bodyBlocks(p *Package, body *ast.BlockStmt, allows []allowDirective) bool {
	found := false
	allowed := func(n ast.Node) bool {
		position := p.Fset.Position(n.Pos())
		probe := Finding{Analyzer: "lockheld", File: c.loader.Rel(position.Filename), Line: position.Line}
		return suppressed(probe, allows)
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				// A select with a default never parks; its comm clauses
				// are guards, not blocking ops. Walk only the case
				// bodies either way, and count the select itself as
				// blocking when it has no default.
				if !selectHasDefault(m) && !allowed(m) {
					found = true
					return false
				}
				for _, cs := range m.Body.List {
					if cc, ok := cs.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.SendStmt:
				if !allowed(m) {
					found = true
					return false
				}
			case *ast.UnaryExpr:
				if m.Op.String() == "<-" && !allowed(m) {
					found = true
					return false
				}
			case *ast.RangeStmt:
				if isChanExpr(p.Info, m.X) && !allowed(m) {
					found = true
					return false
				}
			case *ast.CallExpr:
				if desc := c.blockingCall(p, m); desc != "" && !allowed(m) {
					found = true
					return false
				}
			}
			return true
		})
	}
	walk(body)
	return found
}

// blockingCall classifies a call as blocking, returning a short
// description for the finding message ("" when not blocking). Calls
// through function values and unresolvable interface methods are not
// classified — the lock-held rule binds what the code names, not what a
// hook might do.
func (c *SummaryCache) blockingCall(p *Package, call *ast.CallExpr) string {
	fn, ok := useOf(p.Info, call.Fun).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if c.loader.inModule(fn.Pkg().Path()) {
		if c.Blocks(fn) {
			return "call to " + fn.Name() + " (may block)"
		}
		return ""
	}
	return stdlibBlocking(fn)
}

// stdlibBlocking classifies a standard-library function by table.
func stdlibBlocking(fn *types.Func) string {
	path, name := fn.Pkg().Path(), fn.Name()
	recvNamed := receiverTypeName(fn)
	switch path {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		if recvNamed == "File" && fileIOMethods[name] {
			return "(*os.File)." + name
		}
		if recvNamed == "" && osBlockingFuncs[name] {
			return "os." + name
		}
	case "io":
		if recvNamed == "" && ioBlockingFuncs[name] {
			return "io." + name
		}
	case "net":
		if netBlockingNames[name] {
			return "net." + name
		}
	case "net/http":
		if httpBlockingNames[name] {
			return "net/http " + name
		}
	case "sync":
		// WaitGroup.Wait parks until someone else runs; Cond.Wait is
		// deliberately excluded — it releases the mutex it is
		// coordinated with, which is the opposite of holding a lock
		// across a blocking op.
		if recvNamed == "WaitGroup" && name == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	}
	return ""
}

// receiverTypeName returns the bare receiver type name of a method
// ("File" for *os.File), or "" for a package-level function.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// selectHasDefault reports whether a select statement has a default
// clause.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isChanExpr reports whether e has channel type.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

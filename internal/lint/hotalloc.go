package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotPathFuncs is the scope table, the one way a function comes under
// hotalloc: module-relative package path to "Receiver.Method" (or plain
// "Func") names under the DESIGN §15 zero-alloc contract. These are the
// functions whose steady state the AllocsPerRun tests pin at 0 B/op;
// hotalloc turns that dynamic pin into a source-level one. A new hot
// path joins by adding its entry here.
var hotPathFuncs = map[string]map[string]bool{
	"internal/serve": {
		"Server.ingestBatch":      true,
		"Server.processBinBatch":  true,
		"binFrames.decode":        true,
		"Server.commit":           true,
		"binState.renderBinReply": true,
		// The warm watchlist sweep: a slot answered from the score column
		// allocates nothing (stale slots grow reused buffers in place).
		"sweep.scanShard":       true,
		"storeShard.appendUnit": true,
		// The history column: an upsert writes its report into the ring
		// in place, and a snapshot encodes a section out of it into a
		// reused buffer — a per-section cost, never a per-drive one.
		"storeShard.push":                  true,
		"storeShard.appendSnapshotSection": true,
	},
	"internal/ml/forest": {
		"Forest.Score":   true,
		"Flat.Score":     true,
		"Flat.ScoreRows": true,
	},
	// The per-row scoring entry points of the models that standardize
	// their input: scratch comes from a pool filled at Fit time.
	"internal/ml/knn":       {"Model.Score": true},
	"internal/ml/neuralnet": {"Model.Score": true},
	"internal/ml/logreg":    {"Model.Score": true},
	"internal/ml/svm":       {"Model.Score": true},
	// The SIMD kernels' wrappers, called once per scan chunk and per
	// layer under those Score methods, and per layer and sample (AddOuter)
	// or per layer and mini-batch (Adam) under the net's Fit.
	"internal/ml/vec": {"SqDists": true, "Affine": true, "AddOuter": true, "Adam": true},
	"internal/trace": {
		"AppendFrame": true,
		"BeginFrame":  true,
		"EndFrame":    true,
		"NextFrame":   true,
	},
	"internal/wal": {
		"Log.Append": true,
	},
	// The analyzer's own fixture.
	"internal/lint/testdata/hotalloc": {
		"Render":  true,
		"Bad":     true,
		"Cold":    true,
		"Allowed": true,
	},
}

// HotAllocAnalyzer flags allocation sites inside hot-path functions:
// composite literals that hit the heap, make/new, growing appends
// outside the reuse idiom, string/[]byte conversions, string
// concatenation, interface boxing at call boundaries, closure
// creation, and fmt.* calls. Error paths — blocks whose every
// continuation returns a constructed error — are exempt: a request
// that is already failing may allocate its message.
func HotAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc: "flags allocation sites (composite literals, make/new, growing append, " +
			"string/[]byte conversions, interface boxing, closures, fmt.*) in the functions " +
			"listed in the zero-alloc scope table, with CFG-detected error paths exempt",
		InScope: scopeAll("hotalloc"),
		Check:   checkHotAlloc,
	}
}

// funcKey renders a FuncDecl as the scope-table key: "Recv.Name" with
// the bare receiver type name, or "Name" for package functions.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func checkHotAlloc(p *Package, inScope func(*ast.File) bool, report func(pos token.Pos, msg string)) {
	hot := hotPathFuncs[modRel(p.Path)]
	if hot == nil {
		return
	}
	for _, file := range p.Files {
		if !inScope(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hot[funcKey(fd)] {
				continue
			}
			checkHotAllocBody(p, fd.Body, report)
		}
	}
}

// errorReturnNode reports whether a CFG node terminates an error path:
// a return constructing an error (fmt.Errorf, errors.New) or a panic.
func errorReturnNode(p *Package, node cfgNode) bool {
	switch s := node.stmt.(type) {
	case *ast.ReturnStmt:
		found := false
		walkScan(node.scan, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := useOf(p.Info, call.Fun).(*types.Func); ok && fn.Pkg() != nil {
				path, name := fn.Pkg().Path(), fn.Name()
				if (path == "fmt" && name == "Errorf") || (path == "errors" && name == "New") {
					found = true
					return false
				}
			}
			return true
		})
		return found
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		}
	}
	return false
}

// coldNodes computes the error-path exemption on the CFG: a node is
// cold when every execution continuing from it leaves through an
// error-constructing return (or panic). The fixpoint starts optimistic
// and shrinks, so a node on any path to a normal exit stays hot.
func coldNodes(p *Package, g *cfg) []bool {
	errRet := make([]bool, len(g.nodes))
	for i, n := range g.nodes {
		errRet[i] = errorReturnNode(p, n)
	}
	cold := make([]bool, len(g.nodes))
	for i := range cold {
		cold[i] = true
	}
	cold[g.exit] = false
	for changed := true; changed; {
		changed = false
		for i, n := range g.nodes {
			if !cold[i] || errRet[i] {
				continue
			}
			allCold := len(n.succs) > 0
			for _, s := range n.succs {
				if !cold[s] && !errRet[s] {
					allCold = false
					break
				}
			}
			if !allCold {
				cold[i] = false
				changed = true
			}
		}
	}
	for i := range cold {
		cold[i] = cold[i] || errRet[i]
	}
	return cold
}

func checkHotAllocBody(p *Package, body *ast.BlockStmt, report func(pos token.Pos, msg string)) {
	g := buildCFG(body)
	cold := coldNodes(p, g)
	legal := legalAppends(p, body)

	handled := map[ast.Node]bool{}
	for i, node := range g.nodes {
		if cold[i] {
			continue
		}
		walkScan(node.scan, func(m ast.Node) bool {
			if handled[m] {
				return true
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				report(m.Pos(), "function literal allocates its closure on the hot path; hoist it or pass state explicitly")
			case *ast.UnaryExpr:
				if m.Op == token.AND {
					if cl, ok := m.X.(*ast.CompositeLit); ok {
						handled[cl] = true
						report(m.Pos(), "heap allocation: address of composite literal on the hot path; reuse a pooled or preallocated value")
					}
				}
			case *ast.CompositeLit:
				if tv, ok := p.Info.Types[m]; ok && tv.Type != nil {
					switch tv.Type.Underlying().(type) {
					case *types.Map, *types.Slice:
						report(m.Pos(), "map/slice literal allocates on the hot path; preallocate outside it")
					}
				}
			case *ast.BinaryExpr:
				if m.Op == token.ADD && isStringExpr(p.Info, m) && !isConstExpr(p.Info, m) {
					if l, ok := m.X.(*ast.BinaryExpr); ok {
						handled[l] = true
					}
					if r, ok := m.Y.(*ast.BinaryExpr); ok {
						handled[r] = true
					}
					report(m.Pos(), "string concatenation allocates on the hot path; append into a reused buffer instead")
				}
			case *ast.CallExpr:
				reportHotCall(p, m, legal, report)
			}
			return true
		})
	}
}

// legalAppends collects append calls in the two allocation-amortizing
// idioms: x = append(x, ...) back into the same expression, and a
// directly returned append (the caller owns the growth).
func legalAppends(p *Package, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	legal := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Rhs {
				call, ok := n.Rhs[i].(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p.Info, call) || len(call.Args) == 0 {
					continue
				}
				if exprString(p.Fset, n.Lhs[i]) == exprString(p.Fset, call.Args[0]) {
					legal[call] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if call, ok := r.(*ast.CallExpr); ok && isBuiltinAppend(p.Info, call) {
					legal[call] = true
				}
			}
		}
		return true
	})
	return legal
}

func reportHotCall(p *Package, call *ast.CallExpr, legal map[*ast.CallExpr]bool, report func(pos token.Pos, msg string)) {
	// Builtins: make, new, and appends outside the reuse idioms.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				report(call.Pos(), b.Name()+" allocates on the hot path; preallocate or pool the value")
			case "append":
				if !legal[call] {
					report(call.Pos(), "append outside the x = append(x, ...) reuse idiom allocates when it grows; append in place or preallocate")
				}
			}
			return
		}
	}
	// Conversions between string and byte/rune slices copy.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if stringSliceConversion(p.Info, tv.Type, call.Args[0]) {
			report(call.Pos(), "string/[]byte conversion copies on the hot path; keep one representation")
		}
		return
	}
	if fn, ok := useOf(p.Info, call.Fun).(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt."+fn.Name()+" allocates on the hot path; render with strconv.Append* into a reused buffer")
		return
	}
	reportBoxingArgs(p, call, report)
}

// stringSliceConversion reports whether converting arg to target
// crosses the string/[]byte (or []rune) boundary, which copies.
func stringSliceConversion(info *types.Info, target types.Type, arg ast.Expr) bool {
	argTV, ok := info.Types[arg]
	if !ok || argTV.Type == nil {
		return false
	}
	return (isStringType(target) && isByteishSlice(argTV.Type)) ||
		(isByteishSlice(target) && isStringType(argTV.Type))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteishSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type)
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// reportBoxingArgs flags concrete values passed to interface
// parameters: the conversion boxes on the heap unless the value is
// already pointer-shaped.
func reportBoxingArgs(p *Package, call *ast.CallExpr, report func(pos token.Pos, msg string)) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(xs...) passes the slice through, no boxing
		}
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := p.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if _, alreadyIface := at.Type.Underlying().(*types.Interface); alreadyIface {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: stored directly, no box
		}
		report(arg.Pos(), fmt.Sprintf("%s is boxed into an interface parameter and allocates on the hot path",
			exprString(p.Fset, arg)))
	}
}

package analysis

import (
	"go/ast"
	"go/types"
)

// Lockedcallback returns the check for the fan-out hazard class:
// invoking code you do not control — a callback stored in a struct
// field, a function taken from a map/slice/parameter, or a channel send
// — while a sync.Mutex or sync.RWMutex is held. If the callee calls
// back into the locked component it deadlocks; if it blocks, every other
// caller of the lock stalls behind it. The sanctioned pattern (see the
// scrape hooks in tsdb.Collector.Scrape) is: snapshot the subscriber
// list under the lock, release, then invoke.
//
// Lock tracking is lexical and intra-procedural: a mutex is considered
// held from a `mu.Lock()` / `mu.RLock()` statement until the matching
// unlock in the same statement sequence; `defer mu.Unlock()` holds it
// for the rest of the function. Function literals are analyzed as
// separate bodies (they run later, under whatever locks their caller
// holds). Intentional sends under a lock — e.g. a send whose progress is
// proven by the shutdown protocol — use //lint:ignore lockedcallback.
func Lockedcallback() *Analyzer {
	a := &Analyzer{
		Name: "lockedcallback",
		Doc: "forbids invoking stored callbacks or sending on channels while a " +
			"sync.Mutex/RWMutex is held; snapshot under the lock, invoke outside it",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			if isTestFile(pass, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						scanLocked(pass, newFnScope(pass, n.Type, n.Body), n.Body.List, map[string]bool{})
					}
					return true
				case *ast.FuncLit:
					scanLocked(pass, newFnScope(pass, n.Type, n.Body), n.Body.List, map[string]bool{})
					return true
				}
				return true
			})
		}
	}
	return a
}

// fnScope classifies the identifiers of one function body for the
// dynamic-callee test.
type fnScope struct {
	params map[types.Object]bool // caller-provided values
	inline map[types.Object]bool // locals bound to inline func literals
}

// newFnScope collects the function's parameters and the local variables
// that are only ever bound to inline function literals — calling those
// under a lock is calling the component's own code, not a stored
// callback.
func newFnScope(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) *fnScope {
	sc := &fnScope{params: map[types.Object]bool{}, inline: map[types.Object]bool{}}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := pass.Pkg.Info.Defs[name]; obj != nil {
					sc.params[obj] = true
				}
			}
		}
	}
	bind := func(lhs ast.Expr, rhs ast.Expr, def bool) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		var obj types.Object
		if def {
			obj = pass.Pkg.Info.Defs[id]
		} else {
			obj = pass.Pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
			sc.inline[obj] = true
		} else {
			delete(sc.inline, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i], n.Tok.String() == ":=")
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					bind(name, n.Values[i], true)
				}
			}
		}
		return true
	})
	return sc
}

// scanLocked walks one statement sequence tracking which mutexes are
// held. Nested blocks get a copy of the held set: acquisitions inside a
// branch do not leak past it (conservative in both directions, which is
// the right bias for a reviewable lint).
func scanLocked(pass *Pass, sc *fnScope, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv, op := mutexOp(pass, call); op != "" {
					switch op {
					case "Lock", "RLock":
						held[recv] = true
					case "Unlock", "RUnlock":
						delete(held, recv)
					}
					continue
				}
			}
			checkLockedStmt(pass, sc, s, held)
		case *ast.DeferStmt:
			if recv, op := mutexOp(pass, s.Call); op == "Unlock" || op == "RUnlock" {
				// Held until function exit; the lock stays in the set.
				_ = recv
				continue
			}
			// Deferred work runs at return, when the lock state is
			// whatever the defers before it left; skip rather than guess.
		case *ast.BlockStmt:
			scanLocked(pass, sc, s.List, copyHeld(held))
		case *ast.IfStmt:
			checkLockedExpr(pass, sc, s.Cond, held)
			scanLocked(pass, sc, s.Body.List, copyHeld(held))
			if s.Else != nil {
				scanLocked(pass, sc, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanLocked(pass, sc, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			checkLockedExpr(pass, sc, s.X, held)
			scanLocked(pass, sc, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, clause := range caseBodies(stmt) {
				scanLocked(pass, sc, clause, copyHeld(held))
			}
		case *ast.LabeledStmt:
			scanLocked(pass, sc, []ast.Stmt{s.Stmt}, held)
		case *ast.GoStmt:
			// Spawning a goroutine under a lock is fine; the goroutine
			// does not inherit the lock.
		default:
			checkLockedStmt(pass, sc, stmt, held)
		}
	}
}

func caseBodies(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			out = append(out, c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			out = append(out, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			out = append(out, c.(*ast.CommClause).Body)
		}
	}
	return out
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// checkLockedStmt flags hazards directly inside one statement (without
// descending into nested function literals, which run later).
func checkLockedStmt(pass *Pass, sc *fnScope, stmt ast.Stmt, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "channel send while %s is held; buffered or not, the receiver can stall every caller of the lock", heldName(held))
		case *ast.CallExpr:
			if name, kind := dynamicCallee(pass, sc, n.Fun); name != "" {
				pass.Reportf(n.Pos(), "calls %s %q while %s is held; snapshot under the lock and invoke after unlocking", kind, name, heldName(held))
			}
		}
		return true
	})
}

func checkLockedExpr(pass *Pass, sc *fnScope, expr ast.Expr, held map[string]bool) {
	if expr == nil || len(held) == 0 {
		return
	}
	checkLockedStmt(pass, sc, &ast.ExprStmt{X: expr}, held)
}

func heldName(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// dynamicCallee classifies a call target that resolves to stored or
// caller-provided code rather than a statically known function: a struct
// field of function type, an element of a function map/slice, or a
// function-typed parameter.
func dynamicCallee(pass *Pass, sc *fnScope, fun ast.Expr) (name, kind string) {
	fun = ast.Unparen(fun)
	switch fn := fun.(type) {
	case *ast.SelectorExpr:
		sel, ok := pass.Pkg.Info.Selections[fn]
		if !ok || sel.Kind() != types.FieldVal {
			return "", ""
		}
		if _, isFunc := sel.Type().Underlying().(*types.Signature); !isFunc {
			return "", ""
		}
		return fn.Sel.Name, "stored callback"
	case *ast.IndexExpr:
		t := typeOfExpr(pass, fn)
		if t == nil {
			return "", ""
		}
		if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
			return "", ""
		}
		return types.ExprString(fn), "stored callback"
	case *ast.Ident:
		obj, ok := pass.Pkg.Info.Uses[fn].(*types.Var)
		if !ok || sc.inline[obj] {
			return "", ""
		}
		if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
			return "", ""
		}
		if sc.params[obj] {
			return fn.Name, "caller-provided callback"
		}
		return fn.Name, "stored callback"
	}
	return "", ""
}

func typeOfExpr(pass *Pass, expr ast.Expr) types.Type {
	if tv, ok := pass.Pkg.Info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// mutexOp reports whether call is a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex (including one embedded in a struct), and
// returns the rendered receiver expression as the lock's identity.
func mutexOp(pass *Pass, call *ast.CallExpr) (recv, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.Mutex).Unlock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock":
		return types.ExprString(sel.X), sel.Sel.Name
	}
	return "", ""
}

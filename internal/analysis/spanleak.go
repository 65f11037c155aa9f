package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Spanleak returns the check for the tracing hazard class: starting a
// span and never finishing it. An unfinished span renders as a
// zero-duration (or open) node, silently truncates critical-path
// analysis, and leaves its work out of every report built from span
// durations.
//
// A "start" is any call to a Start*-named function or method whose
// single result is a *Span (repro/internal/trace.Span, or any type of
// that name — the fixture defines its own). The check fires when:
//
//   - the result is dropped (expression statement, or assigned to _);
//   - the result is bound to a local variable that is never the
//     receiver of a Finish/FinishAt/End call anywhere in the function.
//
// The analysis is intra-procedural and existence-based, not
// path-sensitive: one Finish anywhere in the function satisfies it, and
// `defer s.Finish()` is the sanctioned pattern for multi-exit
// functions. Ownership transfers are exempt — a span returned, stored
// into a struct field/map, or passed to another function is someone
// else's to finish (so long-lived spans like cloud's per-instance
// records go unflagged). Deliberate fire-and-forget spans use
// //lint:ignore spanleak with a reason.
func Spanleak() *Analyzer {
	a := &Analyzer{
		Name: "spanleak",
		Doc: "flags trace spans that are started but never finished on any " +
			"path out of the function; defer span.Finish() or hand the span off",
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
						checkSpanBody(pass, n.Body)
					}
				case *ast.FuncLit:
					checkSpanBody(pass, n.Body)
				}
				return true
			})
		}
	}
	return a
}

// finishers are the methods that close a span's lifetime.
var finishers = map[string]bool{"Finish": true, "FinishAt": true, "End": true}

// checkSpanBody analyzes one function body. Nested function literals
// are analyzed separately by the outer Inspect, but a span started in
// the enclosing body and finished inside a nested literal (a defer'd
// closure, a callback) still counts: the use scan below descends into
// literals.
func checkSpanBody(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: find span-producing Start calls and how their results are
	// bound. Dropped results are findings immediately; ident bindings
	// become tracked candidates; any other destination is an ownership
	// transfer and exempt.
	type candidate struct {
		call *ast.CallExpr
		// binders are the ident nodes naming the variable at its Start
		// assignments — excluded from the use scan.
		binders map[*ast.Ident]bool
	}
	cands := map[types.Object]*candidate{}
	bind := func(lhs ast.Expr, rhs ast.Expr, def bool) {
		call := spanStartCall(pass, rhs)
		if call == nil {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // field/map/slice destination: owner finishes it
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "span from %s is discarded and can never be finished", callName(call))
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
		c, ok := cands[obj]
		if !ok {
			c = &candidate{call: call, binders: map[*ast.Ident]bool{}}
			cands[obj] = c
		}
		c.binders[id] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call := spanStartCall(pass, n.X); call != nil {
				pass.Reportf(call.Pos(), "span from %s is discarded and can never be finished", callName(call))
			}
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
	if len(cands) == 0 {
		return
	}

	// Pass 2: classify every remaining use of each candidate. A
	// finisher-method call settles it; another method call on the span
	// (Annotate, StartChild, ...) is neutral; any other appearance —
	// argument, return value, store, comparison — is an escape to an
	// owner elsewhere.
	finished := map[types.Object]bool{}
	escaped := map[types.Object]bool{}
	methodRecv := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := cands[obj]; !tracked {
			return true
		}
		methodRecv[id] = true
		if finishers[sel.Sel.Name] {
			finished[obj] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		c, tracked := cands[obj]
		if !tracked || methodRecv[id] || c.binders[id] {
			return true
		}
		escaped[obj] = true
		return true
	})
	for obj, c := range cands {
		if finished[obj] || escaped[obj] {
			continue
		}
		pass.Reportf(c.call.Pos(),
			"span %q from %s is never finished in this function; defer %s.Finish() or hand it to an owner",
			obj.Name(), callName(c.call), obj.Name())
	}
}

// spanStartCall reports whether expr is a call to a Start*-named
// function or method whose single result is a pointer to a type named
// Span, returning the call if so.
func spanStartCall(pass *Pass, expr ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	var name string
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	case *ast.Ident:
		name = fn.Name
	default:
		return nil
	}
	if !strings.HasPrefix(name, "Start") {
		return nil
	}
	tv, ok := pass.Pkg.Info.Types[call]
	if !ok {
		return nil
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Span" {
		return nil
	}
	return call
}

// callName renders a span-start call target for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return types.ExprString(fn)
	case *ast.Ident:
		return fn.Name
	}
	return "Start call"
}

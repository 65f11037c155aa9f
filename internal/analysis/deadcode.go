package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Deadcode reports functions and methods that nothing a binary runs can
// reach. The roots are:
//
//   - main and init of the main packages matching mains (process entry
//     points);
//   - every export of the packages matching apis (the public API),
//     including the exported methods of exported types;
//   - every init function and every package-level variable initializer;
//   - every method that may satisfy a standard-library interface
//     (String, Error, the sort and heap methods, ServeHTTP, ...), since
//     the standard library calls it where the loader cannot see.
//
// From the roots it follows every reference to a function: calls,
// function values and method values. A reached interface method reaches
// each loaded method that may implement it, as in callgraph.go's CHA.
//
// Only the top of each unreachable region is reported: a function that
// no other unreachable function references, or, for a dead cycle that
// nothing else references, its first member. One //lint:ignore directive
// on a kept function thus covers the helpers only it calls. There is no
// baseline: the directive, with its reason next to the code, is the only
// allowlist, and Run reports it once it has gone stale.
func Deadcode(prog *Program, mains, apis []string) *Analyzer {
	var tops map[*types.Func]string
	return &Analyzer{
		Name: "deadcode",
		Doc:  "functions that no entry point, public API or package initializer reaches",
		Init: func(pkgs []*Package) {
			prog.build(pkgs)
			tops = prog.deadTops(mains, apis)
		},
		Run: func(pass *Pass) {
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
					if msg, ok := tops[fn]; ok {
						pass.Reportf(fd.Name.Pos(), "%s", msg)
					}
				}
			}
		},
	}
}

// refGraph is the reference graph deadcode walks: which functions each
// declared function's body names.
type refGraph struct {
	pkgs  []*Package
	decls []*types.Func // declared functions with bodies, in load order
	refs  map[*types.Func][]*types.Func
	impls []implTarget
	cha   map[*types.Func][]*types.Func // interface method → implementations
}

func newRefGraph(pkgs []*Package) *refGraph {
	g := &refGraph{
		pkgs:  pkgs,
		refs:  map[*types.Func][]*types.Func{},
		impls: collectImplementations(pkgs),
		cha:   map[*types.Func][]*types.Func{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls = append(g.decls, fn)
				g.refs[fn] = funcRefs(pkg, fd.Body)
			}
		}
	}
	return g
}

// funcRefs lists the functions and methods named anywhere under n,
// function literals included.
func funcRefs(pkg *Package, n ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// succ returns what reaching fn reaches: the functions its body names,
// or, for an interface method, every loaded method implementing it.
func (g *refGraph) succ(fn *types.Func) []*types.Func {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return g.refs[fn]
	}
	if impls, ok := g.cha[fn]; ok {
		return impls
	}
	iface := recv.Type().Underlying().(*types.Interface)
	var impls []*types.Func
	for _, impl := range g.impls {
		if !types.Implements(impl.typ, iface) && !types.Implements(types.NewPointer(impl.typ), iface) {
			continue
		}
		if m := lookupMethod(impl.typ, fn.Name()); m != nil {
			impls = append(impls, m.Origin())
		}
	}
	g.cha[fn] = impls
	return impls
}

// roots returns the functions deadcode starts from (see Deadcode).
func (g *refGraph) roots(mains, apis []string) []*types.Func {
	std := stdInterfaceMethods(g.pkgs)
	var out []*types.Func
	for _, pkg := range g.pkgs {
		isMain := pkg.Types.Name() == "main" && matchPkg(pkg.ImportPath, mains)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					name := fn.Name()
					if decl.Recv == nil && (name == "init" || name == "main" && isMain) {
						out = append(out, fn)
					}
					if decl.Recv != nil && mayImplementStd(fn, std) {
						out = append(out, fn)
					}
				case *ast.GenDecl:
					if decl.Tok == token.VAR {
						out = append(out, funcRefs(pkg, decl)...)
					}
				}
			}
		}
		if !matchPkg(pkg.ImportPath, apis) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					out = append(out, obj)
				}
			case *types.TypeName:
				if !obj.Exported() {
					continue
				}
				for _, t := range []types.Type{obj.Type(), types.NewPointer(obj.Type())} {
					ms := types.NewMethodSet(t)
					for i := 0; i < ms.Len(); i++ {
						if m, ok := ms.At(i).Obj().(*types.Func); ok && m.Exported() {
							out = append(out, m.Origin())
						}
					}
				}
			}
		}
	}
	return out
}

// stdInterfaceMethods collects, by name, the method signatures of every
// interface declared at package level in the standard-library packages
// the load imports, plus the anonymous interfaces package errors
// asserts (Unwrap, Is, As).
func stdInterfaceMethods(pkgs []*Package) map[string][]*types.Signature {
	loaded := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Types] = true
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	out := map[string][]*types.Signature{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			out[m.Name()] = append(out[m.Name()], m.Type().(*types.Signature))
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT.Underlying().(*types.Interface))
	tuple := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewParam(token.NoPos, nil, "", t)) }
	sig := func(params, results *types.Tuple) *types.Signature {
		return types.NewSignatureType(nil, nil, nil, params, results, false)
	}
	boolT := types.Typ[types.Bool]
	out["Unwrap"] = append(out["Unwrap"], sig(nil, tuple(errT)), sig(nil, tuple(types.NewSlice(errT))))
	out["Is"] = append(out["Is"], sig(tuple(errT), tuple(boolT)))
	out["As"] = append(out["As"], sig(tuple(types.Universe.Lookup("any").Type()), tuple(boolT)))
	for p := range seen {
		if loaded[p] {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(iface)
			}
		}
	}
	return out
}

// mayImplementStd reports whether method fn has the name and signature
// of a standard-library interface method.
func mayImplementStd(fn *types.Func, std map[string][]*types.Signature) bool {
	for _, sig := range std[fn.Name()] {
		if types.Identical(fn.Type(), sig) {
			return true
		}
	}
	return false
}

// deadTops computes the unreachable declared functions and returns the
// top of each unreachable region with its diagnostic message.
func (p *Program) deadTops(mains, apis []string) map[*types.Func]string {
	g := newRefGraph(p.Pkgs)
	live := map[*types.Func]bool{}
	queue := g.roots(mains, apis)
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[fn] {
			continue
		}
		live[fn] = true
		queue = append(queue, g.succ(fn)...)
	}

	// The dead subgraph, with interface methods (which have no body)
	// looked through to their implementations.
	dead := map[*types.Func]bool{}
	for _, fn := range g.decls {
		if !live[fn] {
			dead[fn] = true
		}
	}
	deadSucc := func(fn *types.Func) []*types.Func {
		var out []*types.Func
		for _, s := range g.succ(fn) {
			targets := []*types.Func{s}
			if _, declared := g.refs[s]; !declared {
				targets = g.succ(s) // an interface method's implementations
			}
			for _, t := range targets {
				if dead[t] && t != fn {
					out = append(out, t)
				}
			}
		}
		return out
	}

	sccs := tarjan(g.decls, dead, deadSucc)
	comp := map[*types.Func]int{}
	for i, scc := range sccs {
		for _, fn := range scc {
			comp[fn] = i
		}
	}
	referenced := make([]bool, len(sccs))
	for _, fn := range g.decls {
		if !dead[fn] {
			continue
		}
		for _, s := range deadSucc(fn) {
			if comp[s] != comp[fn] {
				referenced[comp[s]] = true
			}
		}
	}

	tops := map[*types.Func]string{}
	for i, scc := range sccs {
		if referenced[i] {
			continue
		}
		top := scc[0] // tarjan returns members in declaration order
		reached := map[*types.Func]bool{}
		stack := append([]*types.Func(nil), scc...)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reached[fn] {
				continue
			}
			reached[fn] = true
			stack = append(stack, deadSucc(fn)...)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s is unreachable: no entry point, public API or package initializer reaches it", shortFuncName(top))
		if len(scc) > 1 {
			fmt.Fprintf(&b, " (nor the %d other function(s) in its reference cycle)", len(scc)-1)
		}
		if n := len(reached) - len(scc); n > 0 {
			fmt.Fprintf(&b, "; it reaches %d more unreachable function(s)", n)
		}
		b.WriteString("; delete it, or keep it with //lint:ignore deadcode <reason>")
		tops[top] = b.String()
	}
	return tops
}

// tarjan returns the strongly connected components of the subgraph of
// nodes with in[fn], each sorted in the order of nodes.
func tarjan(nodes []*types.Func, in map[*types.Func]bool, succ func(*types.Func) []*types.Func) [][]*types.Func {
	order := map[*types.Func]int{}
	for i, fn := range nodes {
		order[fn] = i
	}
	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	var out [][]*types.Func
	var connect func(v *types.Func)
	connect = func(v *types.Func) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, seen := index[w]; !seen {
				connect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var scc []*types.Func
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		sort.Slice(scc, func(i, j int) bool { return order[scc[i]] < order[scc[j]] })
		out = append(out, scc)
	}
	for _, fn := range nodes {
		if _, seen := index[fn]; in[fn] && !seen {
			connect(fn)
		}
	}
	return out
}

// shortFuncName trims fn's module-long import path down to its last
// element: "repro/internal/cost.ProjectCost" reads as "cost.ProjectCost",
// a method as "lease.(Service).Book".
func shortFuncName(fn *types.Func) string {
	name := funcDisplayName(fn)
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return name
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Taint-style reachability over the call graph. The interprocedural
// checks share one Program per Run: the call graph is built once, then
// each check asks reachability questions against it — "which functions
// can a shard-merge entry point reach?" (forward, floatmerge), "which
// exported sim entry points reach this math/rand call?" (reverse,
// globalrand), "does this call eventually hit a rendered-output
// primitive?" (reverse closure, maprange).

// Program caches whole-load facts shared by the interprocedural checks.
// One Program instance is handed to each interprocedural analyzer; the
// framework's Init hook populates it exactly once per Run.
type Program struct {
	Pkgs  []*Package
	Graph *CallGraph

	built bool
}

// NewProgram returns an empty program to be shared by interprocedural
// analyzers within one Run.
func NewProgram() *Program { return &Program{} }

// build populates the program. Called via Analyzer.Init; Run invokes
// Init sequentially, so no locking is needed.
func (p *Program) build(pkgs []*Package) {
	if p.built {
		return
	}
	p.Pkgs = pkgs
	p.Graph = BuildCallGraph(pkgs)
	p.built = true
}

// Reach is a reachability query result with parent pointers for path
// reconstruction.
type Reach struct {
	dist   map[*CGNode]int
	parent map[*CGNode]*CGNode
}

// Has reports whether n was reached.
func (r *Reach) Has(n *CGNode) bool {
	_, ok := r.dist[n]
	return ok
}

// Path returns the node chain from the query's origin set to n (origin
// first), or nil if n was not reached.
func (r *Reach) Path(n *CGNode) []*CGNode {
	if !r.Has(n) {
		return nil
	}
	var rev []*CGNode
	for cur := n; cur != nil; cur = r.parent[cur] {
		rev = append(rev, cur)
	}
	out := make([]*CGNode, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// Forward computes the set of nodes reachable from entries by following
// call edges caller→callee. Deterministic: entries are visited in name
// order and adjacency lists are pre-sorted, so parent pointers (and
// therefore reported paths) are stable across runs.
func (g *CallGraph) Forward(entries []*CGNode) *Reach {
	return g.bfs(entries, func(n *CGNode) []*CGEdge { return n.Out }, func(e *CGEdge) *CGNode { return e.Callee })
}

// Reverse computes the set of nodes that can reach one of the targets
// (following edges callee→caller). Path(n) then reads n→...→target when
// reversed; callers usually want "who calls me, transitively".
func (g *CallGraph) Reverse(targets []*CGNode) *Reach {
	return g.bfs(targets, func(n *CGNode) []*CGEdge { return n.In }, func(e *CGEdge) *CGNode { return e.Caller })
}

func (g *CallGraph) bfs(origin []*CGNode, adj func(*CGNode) []*CGEdge, next func(*CGEdge) *CGNode) *Reach {
	r := &Reach{dist: map[*CGNode]int{}, parent: map[*CGNode]*CGNode{}}
	sorted := make([]*CGNode, len(origin))
	copy(sorted, origin)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	var queue []*CGNode
	for _, n := range sorted {
		if n == nil {
			continue
		}
		if _, ok := r.dist[n]; ok {
			continue
		}
		r.dist[n] = 0
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range adj(n) {
			m := next(e)
			if _, ok := r.dist[m]; ok {
				continue
			}
			r.dist[m] = r.dist[n] + 1
			r.parent[m] = n
			queue = append(queue, m)
		}
	}
	return r
}

// ExportedEntryPoints returns the exported declared functions and
// methods of every package, sorted by name — the "API surface" the sim
// path is entered through.
func (p *Program) ExportedEntryPoints() []*CGNode {
	var out []*CGNode
	for _, n := range p.Graph.Nodes() {
		if n.Decl == nil {
			continue
		}
		if !n.Func.Exported() {
			continue
		}
		out = append(out, n)
	}
	return out
}

// EntryPointsMatching returns declared functions whose name satisfies
// match, restricted to packages whose import path matches one of the
// pkgPatterns (exact, or "prefix/..."); empty pkgPatterns means every
// package.
func (p *Program) EntryPointsMatching(match func(name string) bool, pkgPatterns ...string) []*CGNode {
	var out []*CGNode
	for _, n := range p.Graph.Nodes() {
		if n.Decl == nil || n.Pkg == nil {
			continue
		}
		if len(pkgPatterns) > 0 && !matchPkg(n.Pkg.ImportPath, pkgPatterns) {
			continue
		}
		if match(n.Func.Name()) {
			out = append(out, n)
		}
	}
	return out
}

func matchPkg(path string, patterns []string) bool {
	for _, pat := range patterns {
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
		} else if path == pat {
			return true
		}
	}
	return false
}

// EnclosingFunc returns the call-graph node of the declared function
// whose body contains pos, or nil. Function-literal bodies resolve to
// their innermost enclosing declared function, matching how the graph
// attributes their calls.
func (p *Program) EnclosingFunc(pkg *Package, pos token.Pos) *CGNode {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pos >= fd.Pos() && pos <= fd.End() {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					return p.Graph.Node(fn)
				}
			}
		}
	}
	return nil
}

// PathString renders a call path for a diagnostic: "a → b → c".
func PathString(path []*CGNode) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = shortName(n)
	}
	return strings.Join(parts, " → ")
}

// shortName renders a node like shortFuncName (deadcode.go).
func shortName(n *CGNode) string { return shortFuncName(n.Func) }

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Maprange returns the interprocedural check for the #1 way
// byte-identical reports silently break: ranging over a map — whose
// iteration order is deliberately randomized by the runtime — and
// letting that order flow somewhere order-sensitive. A range body is
// order-sensitive when it
//
//   - calls a rendered-output / log-record / mergeable-aggregate sink
//     primitive directly (fmt.Fprint*, Write*, the (Component) record
//     methods Info/Warn/Error and their T variants,
//     (Acc|Hist|Occupancy).Add*/Merge/Observe), or
//   - calls a function from which such a sink is reachable in the call
//     graph (the interprocedural part), or
//   - folds the loop variables into an order-sensitive accumulator
//     declared outside the loop: float += / -= / *= / /= (float addition
//     is not associative, so the last bits depend on iteration order)
//     or string += (concatenation order is the output order).
//
// Collect-then-sort loops — append keys to a slice, sort, iterate the
// slice — contain none of those and pass untouched; that rewrite is
// exactly the suggested fix this check emits where it is mechanical.
func Maprange(prog *Program) *Analyzer {
	a := &Analyzer{
		Name: "maprange",
		Doc: "forbids map iteration whose order flows into rendered output, log " +
			"records, or a mergeable-aggregate/shard-merge path; iterate sorted keys",
	}
	a.Init = prog.build
	var sinkReach *Reach
	reach := func() *Reach {
		if sinkReach == nil {
			sinkReach = prog.Graph.Reverse(sinkContainingNodes(prog))
		}
		return sinkReach
	}
	srcCache := map[string][]byte{}
	granted := map[string]map[string]bool{} // filename -> fresh names already handed out
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			if isTestFile(pass, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, ok := tv.Type.Underlying().(*types.Map); !ok {
					return true
				}
				if why := orderSensitive(pass, prog, reach(), rng); why != "" {
					fix := maprangeFix(pass, rng, srcCache, granted)
					pass.ReportFix(rng.Pos(), fix,
						"unsorted map iteration order %s; iterate sorted keys (collect, sort, then loop)", why)
				}
				return true
			})
		}
	}
	return a
}

// orderSensitive explains why the range body is order-sensitive, or
// returns "".
func orderSensitive(pass *Pass, prog *Program, reach *Reach, rng *ast.RangeStmt) string {
	var why string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc := sinkPrimitive(pass.Pkg, n); desc != "" {
				why = "flows into " + desc
				return false
			}
			if callee := CalleeFunc(pass.Pkg, n); callee != nil {
				if node := prog.Graph.Node(callee); node != nil && reach.Has(node) {
					// Reverse-reach paths read target→…→sink when flipped.
					path := reach.Path(node)
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					why = fmt.Sprintf("flows into a sink via %s", PathString(path))
					return false
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) != 1 {
					return true
				}
				id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Pkg.Info.Uses[id]
				if obj == nil || insideNode(obj.Pos(), rng) {
					return true // per-iteration local: resets every pass
				}
				lt, ok := pass.Pkg.Info.Types[n.Lhs[0]]
				if !ok {
					return true
				}
				if isFloatType(lt.Type) {
					why = fmt.Sprintf("feeds float %s accumulation into %q (float addition is not associative)", n.Tok, id.Name)
					return false
				}
				if n.Tok == token.ADD_ASSIGN && isStringType(lt.Type) {
					why = fmt.Sprintf("feeds string concatenation into %q (concatenation order is output order)", id.Name)
					return false
				}
			}
		}
		return true
	})
	return why
}

func insideNode(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// aggTypes and aggMethods shape-match the repo's mergeable aggregates
// (stats.Acc, stats.Hist, cloud.Occupancy) without importing them, so
// fixtures can define their own.
var aggTypes = map[string]bool{"Acc": true, "Hist": true, "Occupancy": true}
var aggMethods = map[string]bool{
	"Add": true, "Merge": true, "Observe": true,
	"AddInstances": true, "AddFloatingIPs": true,
}

// writerMethods are byte-emitting method names: iteration order becomes
// output bytes directly.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// logMethods are the structured logger's record methods on Component:
// record order is the log stream's sequence, which `logs` and incident
// bundles render.
var logMethods = map[string]bool{
	"Info": true, "Warn": true, "Error": true,
	"InfoT": true, "WarnT": true, "ErrorT": true,
}

// fmtRenderFuncs are the fmt functions that emit to a writer or stdout
// (Sprint* builds a value and is order-free on its own).
var fmtRenderFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// sinkPrimitive classifies a call as a direct order-sensitive sink,
// returning a human-readable description or "".
func sinkPrimitive(pkg *Package, call *ast.CallExpr) string {
	if fn := CalleeFunc(pkg, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && fmtRenderFuncs[fn.Name()] {
		return "rendered output (fmt." + fn.Name() + ")"
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	name := sel.Sel.Name
	recvName := ""
	if named, ok := recv.(*types.Named); ok {
		recvName = named.Obj().Name()
	}
	switch {
	case aggTypes[recvName] && aggMethods[name]:
		return "mergeable aggregate (" + recvName + ")." + name
	case recvName == "Component" && logMethods[name]:
		return "log record ((Component)." + name + ")"
	case writerMethods[name]:
		return "rendered output ((" + orAny(recvName) + ")." + name + ")"
	}
	return ""
}

func orAny(name string) string {
	if name == "" {
		return "writer"
	}
	return name
}

// sinkContainingNodes returns every declared function whose body calls a
// sink primitive directly, in deterministic order.
func sinkContainingNodes(prog *Program) []*CGNode {
	var out []*CGNode
	for _, node := range prog.Graph.Nodes() {
		if node.Decl == nil || node.Pkg == nil {
			continue
		}
		found := false
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && sinkPrimitive(node.Pkg, call) != "" {
				found = true
			}
			return true
		})
		if found {
			out = append(out, node)
		}
	}
	return out
}

// maprangeFix builds the sorted-keys rewrite when it is mechanical:
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)            // or sort.Ints / sort.Slice
//	for _, k := range keys {
//		v := m[k]
//		<original body>
//	}
//
// It returns nil (no fix, finding stands on its own) when the loop shape
// is not mechanically rewritable: blank or absent key, non-:= bindings,
// a ranged expression with side effects, an unorderable or unnameable
// key type, mutation of the map inside the body, or a file whose import
// block cannot take "sort".
func maprangeFix(pass *Pass, rng *ast.RangeStmt, srcCache map[string][]byte, granted map[string]map[string]bool) *SuggestedFix {
	if rng.Tok != token.DEFINE {
		return nil
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	var val *ast.Ident
	if rng.Value != nil {
		v, ok := rng.Value.(*ast.Ident)
		if !ok {
			return nil
		}
		if v.Name != "_" {
			val = v
		}
	}
	if !pureRangeExpr(rng.X) {
		return nil
	}
	mt, ok := pass.Pkg.Info.Types[rng.X].Type.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	keyBasic, ok := mt.Key().Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	keyType := types.TypeString(mt.Key(), types.RelativeTo(pass.Pkg.Types))
	if strings.Contains(keyType, ".") {
		return nil // foreign named key type: not worth qualifying here
	}
	if mutatesMap(pass, rng) {
		return nil
	}

	file := enclosingFile(pass, rng.Pos())
	if file == nil {
		return nil
	}
	filename := pass.Pkg.Fset.Position(rng.Pos()).Filename
	if granted[filename] == nil {
		granted[filename] = map[string]bool{}
	}
	keysName := freshName(file, "keys", granted[filename])
	if keysName == "" {
		return nil
	}
	granted[filename][keysName] = true

	src, ok := srcCache[filename]
	if !ok {
		data, err := os.ReadFile(filename)
		if err != nil {
			return nil
		}
		src = data
		srcCache[filename] = src
	}
	start := pass.Pkg.Fset.Position(rng.Pos()).Offset
	end := pass.Pkg.Fset.Position(rng.End()).Offset
	bodyL := pass.Pkg.Fset.Position(rng.Body.Lbrace).Offset
	bodyR := pass.Pkg.Fset.Position(rng.Body.Rbrace).Offset
	if start < 0 || end > len(src) || bodyL < start || bodyR > end {
		return nil
	}
	indent := lineIndent(src, start)
	mSrc := string(src[pass.Pkg.Fset.Position(rng.X.Pos()).Offset:pass.Pkg.Fset.Position(rng.X.End()).Offset])

	var sortCall string
	switch {
	case keyBasic.Info()&types.IsString != 0 && keyType == "string":
		sortCall = fmt.Sprintf("sort.Strings(%s)", keysName)
	case keyBasic.Kind() == types.Int && keyType == "int":
		sortCall = fmt.Sprintf("sort.Ints(%s)", keysName)
	case keyBasic.Info()&(types.IsOrdered) != 0:
		sortCall = fmt.Sprintf("sort.Slice(%s, func(i, j int) bool { return %s[i] < %s[j] })",
			keysName, keysName, keysName)
	default:
		return nil
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", keysName, keyType, mSrc)
	fmt.Fprintf(&b, "%sfor %s := range %s {\n", indent, key.Name, mSrc)
	fmt.Fprintf(&b, "%s\t%s = append(%s, %s)\n", indent, keysName, keysName, key.Name)
	fmt.Fprintf(&b, "%s}\n", indent)
	fmt.Fprintf(&b, "%s%s\n", indent, sortCall)
	fmt.Fprintf(&b, "%sfor _, %s := range %s {", indent, key.Name, keysName)
	if val != nil {
		fmt.Fprintf(&b, "\n%s\t%s := %s[%s]", indent, val.Name, mSrc, key.Name)
	}
	b.Write(src[bodyL+1 : bodyR]) // original body bytes, comments intact
	b.WriteString("}")

	fix := &SuggestedFix{
		Message: "iterate sorted keys instead of map order",
		Edits: []TextEdit{{
			File: filename, Start: start, End: end, NewText: b.String(),
		}},
	}
	if imp := sortImportEdit(pass, file, filename, src); imp != nil {
		fix.Edits = append(fix.Edits, *imp)
	} else if !hasImport(file, "sort") {
		return nil
	}
	return fix
}

// pureRangeExpr accepts identifiers and field-selection chains: cheap,
// side-effect free, safe to evaluate again in the rewritten loop.
func pureRangeExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return pureRangeExpr(e.X)
	}
	return false
}

// mutatesMap reports whether the loop body deletes from or assigns into
// the ranged map (the rewrite snapshots keys up front, which would
// change semantics).
func mutatesMap(pass *Pass, rng *ast.RangeStmt) bool {
	mText := types.ExprString(ast.Unparen(rng.X))
	bad := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if types.ExprString(ast.Unparen(n.Args[0])) == mText {
					bad = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if types.ExprString(ast.Unparen(ix.X)) == mText {
						bad = true
					}
				}
			}
		}
		return !bad
	})
	return bad
}

// enclosingFile finds the *ast.File containing pos.
func enclosingFile(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Pkg.Files {
		if pos >= f.Pos() && pos <= f.End() {
			return f
		}
	}
	return nil
}

// freshName returns a name not used anywhere in the file and not in
// taken (names granted to earlier fixes this run — the AST does not see
// those yet), derived from base ("keys", "keys2", ...), or "" after too
// many collisions.
func freshName(f *ast.File, base string, taken map[string]bool) string {
	used := map[string]bool{}
	for name := range taken {
		used[name] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	if !used[base] {
		return base
	}
	for i := 2; i < 10; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !used[cand] {
			return cand
		}
	}
	return ""
}

// lineIndent returns the whitespace prefix of the line containing
// offset.
func lineIndent(src []byte, offset int) string {
	ls := offset
	for ls > 0 && src[ls-1] != '\n' {
		ls--
	}
	i := ls
	for i < len(src) && (src[i] == ' ' || src[i] == '\t') {
		i++
	}
	return string(src[ls:i])
}

func hasImport(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == path {
			return true
		}
	}
	return false
}

// sortImportEdit returns the edit inserting "sort" into the file's
// grouped import block, alphabetically within the leading (stdlib)
// group, or nil when no edit is needed or possible.
func sortImportEdit(pass *Pass, f *ast.File, filename string, src []byte) *TextEdit {
	if hasImport(f, "sort") {
		return nil
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if !gd.Lparen.IsValid() {
			// Single-line form: rewrite `import "x"` into a grouped block
			// with "sort" in alphabetical position.
			if len(gd.Specs) != 1 {
				continue
			}
			is, ok := gd.Specs[0].(*ast.ImportSpec)
			if !ok || is.Name != nil {
				return nil
			}
			path, err := strconv.Unquote(is.Path.Value)
			if err != nil || path == "" {
				return nil
			}
			first, second := path, "sort"
			if second < first {
				first, second = second, first
			}
			start := pass.Pkg.Fset.Position(gd.Pos()).Offset
			end := pass.Pkg.Fset.Position(gd.End()).Offset
			return &TextEdit{File: filename, Start: start, End: end,
				NewText: fmt.Sprintf("import (\n\t%q\n\t%q\n)", first, second)}
		}
		specs := make([]*ast.ImportSpec, 0, len(gd.Specs))
		for _, s := range gd.Specs {
			if is, ok := s.(*ast.ImportSpec); ok && is.Name == nil {
				specs = append(specs, is)
			}
		}
		if len(specs) == 0 {
			return nil
		}
		sort.Slice(specs, func(i, j int) bool { return specs[i].Pos() < specs[j].Pos() })
		// Walk the leading group (contiguous lines); insert before the
		// first path sorting after "sort", else after the group's last.
		prevLine := -1
		var after *ast.ImportSpec
		for _, is := range specs {
			line := pass.Pkg.Fset.Position(is.Pos()).Line
			if prevLine >= 0 && line > prevLine+1 {
				break // group boundary
			}
			prevLine = line
			path, err := strconv.Unquote(is.Path.Value)
			if err != nil {
				return nil
			}
			if path > "sort" {
				off := pass.Pkg.Fset.Position(is.Pos()).Offset
				return &TextEdit{File: filename, Start: off, End: off, NewText: "\"sort\"\n\t"}
			}
			after = is
		}
		if after != nil {
			off := pass.Pkg.Fset.Position(after.End()).Offset
			return &TextEdit{File: filename, Start: off, End: off, NewText: "\n\t\"sort\""}
		}
	}
	return nil
}

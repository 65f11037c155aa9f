// Package analysis is a small, stdlib-only static-analysis framework
// (go/ast + go/parser + go/types, no go/packages) plus the repository's
// lint checks. It exists because the paper's cost figures are only
// reproducible while the simulated testbed stays deterministic, and two
// bug classes — wall-clock reads inside simulated components and
// map/slice aliasing across API boundaries — have each had to be fixed
// by hand in earlier PRs. mlsyslint turns those conventions into build
// failures.
//
// Checks:
//
//   - wallclock: time.Now/Sleep/After/Tick/Since/Until outside the
//     clock boundary (internal/simclock, internal/clock, cmd/ and
//     examples/ entry points, tests).
//   - mapalias: exported functions that store a caller-provided map or
//     slice into struct fields or package state without copying.
//   - lockedcallback: invoking a stored callback or sending on a
//     channel while a sync.Mutex/RWMutex is held.
//   - unchecked: dropped error returns outside an explicit allowlist.
//   - spanleak: trace spans started but never finished (and never
//     handed to an owner) on any path out of the function.
//   - deadcode: functions that no process entry point, public API or
//     package initializer can reach — code that only tests run
//     (deadcode.go).
//
// Findings are suppressed per line with
//
//	//lint:ignore <check> <reason>
//
// on the flagged line or the line above, or per file with
// //lint:file-ignore. The reason is mandatory: a directive without one
// is itself a finding, as is a directive that matches nothing.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned at a concrete file location.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
	// Fix, when non-nil, is a mechanical rewrite that removes the
	// finding; `mlsyslint -fix` applies it (fix.go).
	Fix *SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Init, when non-nil, runs once per Run over the whole package load
	// before any per-package pass. The interprocedural checks use it to
	// build their shared call graph (taint.go).
	Init func(pkgs []*Package)
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Check *Analyzer
	Pkg   *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Check:   p.Check.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding carrying a mechanical suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Check:   p.Check.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	})
}

// Result is the outcome of a Run: actionable findings plus the findings
// that //lint:ignore directives silenced (kept for accounting).
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  []Diagnostic
}

// Run executes every analyzer over every package, applies suppression
// directives, and returns diagnostics sorted by position. Directive
// problems (missing reason, matching no finding) are reported under the
// "lint" pseudo-check.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	for _, a := range analyzers {
		if a.Init != nil {
			a.Init(pkgs)
		}
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Check: a, Pkg: pkg}
			a.Run(pass)
			all = append(all, pass.diags...)
		}
	}

	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	var res Result
	var directives []*directive
	for _, pkg := range pkgs {
		dirs, malformed := collectDirectives(pkg)
		res.Diagnostics = append(res.Diagnostics, malformed...)
		directives = append(directives, dirs...)
	}
	for _, d := range all {
		if dir := matchDirective(directives, d); dir != nil {
			dir.used = true
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	// A directive for an active check that silenced nothing is stale:
	// report it so suppressions cannot outlive the code they excuse.
	for _, dir := range directives {
		if !dir.used && active[dir.check] {
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Check: "lint",
				Pos:   dir.pos,
				Message: fmt.Sprintf(
					"lint:ignore %s directive matches no finding; delete it", dir.check),
			})
		}
	}
	sortDiags(res.Diagnostics)
	sortDiags(res.Suppressed)
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

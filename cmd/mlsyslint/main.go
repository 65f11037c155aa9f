// Command mlsyslint runs the repository's static-analysis checks — the
// simulation and concurrency invariants that keep the paper's cost
// figures reproducible — and exits non-zero on findings.
//
// Usage:
//
//	mlsyslint [flags] [check ...]
//
// With no positional arguments every check runs (wallclock, mapalias,
// lockedcallback, unchecked, spanleak, and the interprocedural
// maprange, globalrand, floatmerge, deadcode); naming checks runs that
// subset, e.g. `mlsyslint maprange`. See internal/analysis for the
// check taxonomy and the //lint:ignore suppression syntax.
//
// Flags:
//
//	-root dir        module root (default: nearest go.mod upward)
//	-json            emit machine-readable findings
//	-fix             apply suggested fixes in place, re-running the
//	                 analysis until it converges
//	-q               suppress the summary line
//
// Exit codes distinguish lint findings from broken builds so CI can
// tell them apart: 0 clean, 1 findings, 2 load/parse/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Exit codes: CI treats 1 as "the code has findings" and 2 as "the
// lint run itself failed" (unparseable source, bad flags, I/O).
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mlsyslint", flag.ContinueOnError)
	root := fs.String("root", "", "module root (default: nearest go.mod upward from cwd)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	fix := fs.Bool("fix", false, "apply suggested fixes in place until the analysis converges")
	quiet := fs.Bool("q", false, "suppress the summary line")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *root == "" {
		r, err := findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlsyslint:", err)
			return exitError
		}
		*root = r
	}

	res, analyzers, pkgCount, err := analyze(*root, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlsyslint:", err)
		return exitError
	}

	if *fix {
		// Fixes invalidate byte offsets and can expose new findings
		// (e.g. an inner map range copied into a rewritten loop), so
		// re-run until no fix applies. The bound is defensive: a fix
		// that does not remove its own finding would otherwise loop.
		for iter := 0; iter < 10; iter++ {
			outcome, err := analysis.ApplyFixes(res.Diagnostics)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mlsyslint:", err)
				return exitError
			}
			if !*quiet && outcome.Applied > 0 {
				fmt.Fprintf(os.Stderr, "mlsyslint: applied %d fix(es) across %d file(s)\n",
					outcome.Applied, outcome.Files)
			}
			if outcome.Applied == 0 {
				break
			}
			res, analyzers, pkgCount, err = analyze(*root, fs.Args())
			if err != nil {
				fmt.Fprintln(os.Stderr, "mlsyslint:", err)
				return exitError
			}
		}
	}

	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
			Fixable bool   `json:"fixable,omitempty"`
		}
		out := struct {
			Findings   []finding `json:"findings"`
			Suppressed int       `json:"suppressed"`
			Packages   int       `json:"packages"`
		}{Findings: []finding{}, Suppressed: len(res.Suppressed), Packages: pkgCount}
		for _, d := range res.Diagnostics {
			out.Findings = append(out.Findings, finding{
				File: relPath(*root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Message: d.Message, Fixable: d.Fix != nil,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mlsyslint:", err)
			return exitError
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Printf("%s:%d:%d: [%s] %s\n",
				relPath(*root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
		if !*quiet {
			names := make([]string, len(analyzers))
			for i, a := range analyzers {
				names[i] = a.Name
			}
			fmt.Printf("mlsyslint: %d finding(s), %d suppressed, %d package(s), checks: %s\n",
				len(res.Diagnostics), len(res.Suppressed), pkgCount, strings.Join(names, ","))
		}
	}
	if len(res.Diagnostics) > 0 {
		return exitFindings
	}
	return exitClean
}

// analyze performs one full load-and-run over the module.
func analyze(root string, checkNames []string) (analysis.Result, []*analysis.Analyzer, int, error) {
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return analysis.Result{}, nil, 0, err
	}
	all := analysis.RepoAnalyzers(loader.Module)
	analyzers, err := selectAnalyzers(all, checkNames)
	if err != nil {
		return analysis.Result{}, nil, 0, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return analysis.Result{}, nil, 0, err
	}
	return analysis.Run(pkgs, analyzers), analyzers, len(pkgs), nil
}

func selectAnalyzers(all []*analysis.Analyzer, names []string) ([]*analysis.Analyzer, error) {
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	known := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	sort.Strings(known)
	var out []*analysis.Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found upward from working directory")
		}
		dir = parent
	}
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

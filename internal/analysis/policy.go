package analysis

// RepoAnalyzers instantiates every check with this repository's policy,
// the one place `mlsyslint` reads it from. module is the module path
// from go.mod.
func RepoAnalyzers(module string) []*Analyzer {
	// The interprocedural checks share one call graph per run.
	prog := NewProgram()
	return []*Analyzer{
		// The clock boundary: only the simulation kernel, the clock
		// abstraction itself, and process entry points may read real time.
		Wallclock(
			module+"/internal/simclock",
			module+"/internal/clock",
			module+"/cmd/...",
			module+"/examples/...",
		),
		Mapalias(),
		Lockedcallback(),
		// Errors from formatted printing to stdout/stderr reports and from
		// in-memory builders are unreportable or nil by contract; file and
		// state mutations are not allowlisted and must be handled.
		Unchecked(
			"fmt.Print", "fmt.Printf", "fmt.Println",
			"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
			"(*strings.Builder).WriteString", "(*strings.Builder).WriteByte",
			"(*strings.Builder).WriteRune", "(*strings.Builder).Write",
			"(*bytes.Buffer).WriteString", "(*bytes.Buffer).WriteByte",
			"(*bytes.Buffer).WriteRune", "(*bytes.Buffer).Write",
		),
		Spanleak(),
		Maprange(prog),
		Globalrand(prog),
		// Shard-merge entry points live where the mergeable aggregates do.
		Floatmerge(prog,
			module+"/internal/shardsim",
			module+"/internal/stats",
			module+"/internal/cloud",
		),
		// Code is live when a process entry point, the public API or a
		// package initializer reaches it. cmd/bench is one of the mains:
		// the loader walks it like any other package.
		Deadcode(prog,
			[]string{module + "/cmd/...", module + "/examples/..."},
			[]string{module + "/pkg/..."},
		),
	}
}

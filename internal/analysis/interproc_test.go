package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMaprangeGolden(t *testing.T) {
	runGolden(t, Maprange(NewProgram()), "maprange", false)
}

func TestGlobalrandGolden(t *testing.T) {
	runGolden(t, Globalrand(NewProgram()), "globalrand", false)
}

func TestFloatmergeGolden(t *testing.T) {
	runGolden(t, Floatmerge(NewProgram(), "floatmerge"), "floatmerge", false)
}

func TestDeadcodeGolden(t *testing.T) {
	runGolden(t, Deadcode(NewProgram(), []string{"deadcode"}, nil), "deadcode", false)
}

// TestDeadcodeAPIRoots: naming the fixture as public API makes its
// exports roots, so Exported is no longer reported.
func TestDeadcodeAPIRoots(t *testing.T) {
	pkg := loadFixture(t, "deadcode", false)
	res := Run([]*Package{pkg}, []*Analyzer{Deadcode(NewProgram(), []string{"deadcode"}, []string{"deadcode"})})
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "deadcode.Exported ") {
			t.Errorf("exported API function reported: %s", d)
		}
	}
	if len(res.Diagnostics) != 3 {
		t.Errorf("got %d findings, want 3 (orphan, ping, spin):\n%v", len(res.Diagnostics), res.Diagnostics)
	}
}

// TestCallGraphReachability exercises the call-graph layer directly on
// the globalrand fixture: Simulate → step → jitter is a forward chain,
// and the reverse closure of jitter names exactly its callers.
func TestCallGraphReachability(t *testing.T) {
	pkg := loadFixture(t, "globalrand", false)
	g := BuildCallGraph([]*Package{pkg})

	byName := map[string]*CGNode{}
	for _, n := range g.Nodes() {
		byName[shortName(n)] = n
	}
	for _, name := range []string{"globalrand.Simulate", "globalrand.step", "globalrand.jitter", "globalrand.orphan"} {
		if byName[name] == nil {
			t.Fatalf("call graph has no node %s (have %v)", name, keysOf(byName))
		}
	}

	fwd := g.Forward([]*CGNode{byName["globalrand.Simulate"]})
	if !fwd.Has(byName["globalrand.jitter"]) {
		t.Error("jitter should be forward-reachable from Simulate")
	}
	if fwd.Has(byName["globalrand.orphan"]) {
		t.Error("orphan must not be reachable from Simulate")
	}
	path := fwd.Path(byName["globalrand.jitter"])
	if got := PathString(path); got != "globalrand.Simulate → globalrand.step → globalrand.jitter" {
		t.Errorf("path = %q", got)
	}

	rev := g.Reverse([]*CGNode{byName["globalrand.jitter"]})
	for name, want := range map[string]bool{
		"globalrand.Simulate": true, "globalrand.step": true,
		"globalrand.jitter": true, "globalrand.orphan": false,
	} {
		if rev.Has(byName[name]) != want {
			t.Errorf("reverse reach of jitter: Has(%s) = %v, want %v", name, !want, want)
		}
	}
}

func keysOf(m map[string]*CGNode) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestApplyFixesGolden runs the maprange fixer over the seeded fixture
// and requires byte-identical golden output, then proves idempotence:
// re-analyzing the fixed source must suggest nothing further.
func TestApplyFixesGolden(t *testing.T) {
	dir := t.TempDir()
	input, err := os.ReadFile(filepath.Join("testdata", "fix", "maprange", "input.go"))
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "input.go")
	if err := os.WriteFile(target, input, 0o644); err != nil {
		t.Fatal(err)
	}

	analyzeDir := func() Result {
		pkg, err := LoadDir(dir, "fixme", false)
		if err != nil {
			t.Fatal(err)
		}
		return Run([]*Package{pkg}, []*Analyzer{Maprange(NewProgram())})
	}

	res := analyzeDir()
	if len(res.Diagnostics) != 2 {
		t.Fatalf("findings before fix = %d, want 2", len(res.Diagnostics))
	}
	for _, d := range res.Diagnostics {
		if d.Fix == nil {
			t.Fatalf("finding has no suggested fix: %s", d)
		}
	}
	out, err := ApplyFixes(res.Diagnostics)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 2 || out.Skipped != 0 || out.Files != 1 {
		t.Fatalf("fix outcome = %+v, want 2 applied in 1 file", out)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "fix", "maprange", "fixed.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(fixed) != string(golden) {
		t.Errorf("fixed output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", fixed, golden)
	}

	// Idempotence: the rewritten loops iterate a sorted slice, so the
	// second pass must be clean and apply nothing.
	res = analyzeDir()
	if len(res.Diagnostics) != 0 {
		t.Fatalf("findings after fix = %d, want 0: %v", len(res.Diagnostics), res.Diagnostics)
	}
	out, err = ApplyFixes(res.Diagnostics)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 0 || out.Files != 0 {
		t.Fatalf("second ApplyFixes outcome = %+v, want all zero", out)
	}
}

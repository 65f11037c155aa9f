package analysis

import (
	"encoding/json"
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

// TestBaselineRoundTrip writes a baseline from one run's findings and
// verifies a reload filters exactly those findings, while an extra
// instance of a baselined finding still gates.
func TestBaselineRoundTrip(t *testing.T) {
	pkg := loadFixture(t, "maprange", false)
	res := Run([]*Package{pkg}, []*Analyzer{Maprange(NewProgram())})
	if len(res.Diagnostics) == 0 {
		t.Fatal("fixture produced no findings")
	}

	path := filepath.Join(t.TempDir(), "lint.baseline.json")
	if err := WriteBaseline(path, NewBaseline(res.Diagnostics, "")); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh, matched := b.Filter(res.Diagnostics, "")
	if len(fresh) != 0 {
		t.Errorf("fresh after round-trip = %d, want 0: %v", len(fresh), fresh)
	}
	if len(matched) != len(res.Diagnostics) {
		t.Errorf("matched = %d, want %d", len(matched), len(res.Diagnostics))
	}

	// A new instance of an already-baselined finding overflows its count.
	extra := append([]Diagnostic{res.Diagnostics[0]}, res.Diagnostics...)
	fresh, _ = b.Filter(extra, "")
	if len(fresh) != 1 {
		t.Errorf("fresh with duplicated finding = %d, want 1", len(fresh))
	}
}

// TestSARIFShape validates the emitted SARIF against the 2.1.0 shape the
// acceptance gate cares about: schema/version, one run, every rule
// referenced by a result is declared, and locations are file+line.
func TestSARIFShape(t *testing.T) {
	pkg := loadFixture(t, "maprange", false)
	analyzers := []*Analyzer{Maprange(NewProgram())}
	res := Run([]*Package{pkg}, analyzers)
	data, err := SARIF(res, "", analyzers)
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if !strings.Contains(doc.Schema, "sarif-2.1.0") || doc.Version != "2.1.0" {
		t.Errorf("schema/version = %q / %q, want 2.1.0", doc.Schema, doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	rules := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	if !rules["maprange"] {
		t.Errorf("driver rules missing maprange: %v", rules)
	}
	if len(run.Results) != len(res.Diagnostics) {
		t.Errorf("results = %d, want %d", len(run.Results), len(res.Diagnostics))
	}
	for _, r := range run.Results {
		if !rules[r.RuleID] {
			t.Errorf("result references undeclared rule %q", r.RuleID)
		}
		if r.Message.Text == "" {
			t.Error("result has empty message")
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine <= 0 {
			t.Errorf("bad physical location: %+v", loc)
		}
	}
}

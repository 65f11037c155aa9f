package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// wantRe matches golden expectation comments: // want `regex` or
// // want check `regex`.
var wantRe = regexp.MustCompile("// want (?:(\\w+) )?`(.*)`")

type expectation struct {
	check string
	re    *regexp.Regexp
	hit   bool
}

// loadFixture loads one testdata package under its check's name.
func loadFixture(t *testing.T, name string, includeTests bool) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), name, includeTests)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// runGolden runs one analyzer over its fixture package and compares the
// diagnostics against the fixture's // want comments: every finding must
// be expected, every expectation must fire, and at least one finding
// must have been suppressed by a //lint:ignore directive (the fixtures
// each demonstrate justified suppression).
func runGolden(t *testing.T, a *Analyzer, fixture string, includeTests bool) {
	t.Helper()
	pkg := loadFixture(t, fixture, includeTests)
	res := Run([]*Package{pkg}, []*Analyzer{a})

	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			check := m[1]
			if check == "" {
				check = a.Name
			}
			key := fmt.Sprintf("%s:%d", filepath.Base(filename), i+1)
			wants[key] = append(wants[key], &expectation{check: check, re: regexp.MustCompile(m[2])})
		}
	}

	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.check == d.Check && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: expected %s finding matching %q, got none", key, w.check, w.re)
			}
		}
	}
	if len(res.Suppressed) == 0 {
		t.Errorf("fixture %s: expected at least one //lint:ignore-suppressed finding, got none", fixture)
	}
}

func TestWallclockGolden(t *testing.T) {
	// includeTests proves the _test.go exemption: exempt_test.go calls
	// time.Now with no want comment.
	runGolden(t, Wallclock(), "wallclock", true)
}

func TestMapaliasGolden(t *testing.T) {
	runGolden(t, Mapalias(), "mapalias", false)
}

func TestLockedcallbackGolden(t *testing.T) {
	runGolden(t, Lockedcallback(), "lockedcallback", false)
}

func TestSpanleakGolden(t *testing.T) {
	runGolden(t, Spanleak(), "spanleak", false)
}

func TestUncheckedGolden(t *testing.T) {
	runGolden(t, Unchecked("fmt.Println", "unchecked.allowlisted"), "unchecked", false)
}

// TestWallclockAllowlist verifies that allowlisted packages are skipped
// entirely — and that a suppression directive in a skipped package is
// then reported as stale by the lint pseudo-check.
func TestWallclockAllowlist(t *testing.T) {
	pkg := loadFixture(t, "wallclock", false)
	res := Run([]*Package{pkg}, []*Analyzer{Wallclock("wallclock")})
	var stale int
	for _, d := range res.Diagnostics {
		switch d.Check {
		case "wallclock":
			t.Errorf("allowlisted package still flagged: %s", d)
		case "lint":
			stale++
			if !strings.Contains(d.Message, "matches no finding") {
				t.Errorf("unexpected lint diagnostic: %s", d)
			}
		}
	}
	if stale != 1 {
		t.Errorf("stale directive diagnostics = %d, want 1", stale)
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("suppressed = %d, want 0 (check never ran)", len(res.Suppressed))
	}
}

// TestWallclockSubtreeAllowlist verifies the "/..." prefix form.
func TestWallclockSubtreeAllowlist(t *testing.T) {
	pkg := loadFixture(t, "wallclock", false)
	for _, pat := range []string{"wallclock/...", "repro/cmd/..."} {
		res := Run([]*Package{pkg}, []*Analyzer{Wallclock(pat)})
		flagged := 0
		for _, d := range res.Diagnostics {
			if d.Check == "wallclock" {
				flagged++
			}
		}
		if pat == "wallclock/..." && flagged != 0 {
			t.Errorf("pattern %q: %d findings, want 0", pat, flagged)
		}
		if pat == "repro/cmd/..." && flagged == 0 {
			t.Errorf("pattern %q: 0 findings, want >0 (pattern must not match)", pat)
		}
	}
}

// TestDirectiveDiagnostics verifies that a reason-less directive and a
// directive matching no finding are themselves findings.
func TestDirectiveDiagnostics(t *testing.T) {
	dir := t.TempDir()
	src := `// Package fixture exercises directive hygiene.
package fixture

//lint:ignore wallclock
func a() {}

//lint:ignore unchecked this otherwise-well-formed directive matches no finding
func b() {}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "fixture", false)
	if err != nil {
		t.Fatal(err)
	}
	res := Run([]*Package{pkg}, []*Analyzer{Wallclock(), Unchecked()})
	var malformed, stale bool
	for _, d := range res.Diagnostics {
		if d.Check != "lint" {
			t.Errorf("unexpected non-lint diagnostic: %s", d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "malformed"):
			malformed = true
			if d.Pos.Line != 4 {
				t.Errorf("malformed directive reported at line %d, want 4", d.Pos.Line)
			}
		case strings.Contains(d.Message, "matches no finding"):
			stale = true
			if d.Pos.Line != 7 {
				t.Errorf("stale directive reported at line %d, want 7", d.Pos.Line)
			}
		default:
			t.Errorf("unexpected lint diagnostic: %s", d)
		}
	}
	if !malformed || !stale {
		t.Errorf("malformed=%v stale=%v, want both true", malformed, stale)
	}
}

// TestLoadersShareStdlib loads three fixtures that import fmt, each with
// its own Loader and on its own goroutine (run it under -race): the
// loads must succeed, and all three must see the one fmt package the
// process-wide importer checked.
func TestLoadersShareStdlib(t *testing.T) {
	fixtures := []string{"deadcode", "maprange", "unchecked"}
	pkgs := make([]*Package, len(fixtures))
	var wg sync.WaitGroup
	for i, name := range fixtures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkg, err := LoadDir(filepath.Join("testdata", "src", name), name, false)
			if err != nil {
				t.Errorf("loading %s: %v", name, err)
				return
			}
			pkgs[i] = pkg
		}()
	}
	wg.Wait()
	var fmtPkg *types.Package
	for i, pkg := range pkgs {
		if pkg == nil {
			t.FailNow()
		}
		var got *types.Package
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == "fmt" {
				got = imp
			}
		}
		if got == nil {
			t.Fatalf("%s does not import fmt", fixtures[i])
		}
		if fmtPkg == nil {
			fmtPkg = got
		} else if got != fmtPkg {
			t.Errorf("%s sees its own fmt package; want the one shared stdlib import", fixtures[i])
		}
	}
}

// TestLoaderModule verifies module discovery and cross-package imports
// in the go/packages-free loader using a synthetic two-package module.
func TestLoaderModule(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/mod\n\ngo 1.22\n")
	write("a/a.go", "// Package a is a loader fixture.\npackage a\n\n// V is exported state.\nvar V = map[string]int{}\n")
	write("b/b.go", "// Package b imports a.\npackage b\n\nimport \"example.com/mod/a\"\n\n// N reads a.V.\nfunc N() int { return len(a.V) }\n")
	write("testdata/skip.go", "package skipped\n\nfunc init() { undefinedSymbol() }\n")

	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.Module != "example.com/mod" {
		t.Fatalf("module = %q, want example.com/mod", l.Module)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	want := []string{"example.com/mod/a", "example.com/mod/b"}
	if len(paths) != 2 || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("loaded %v, want %v (testdata must be skipped)", paths, want)
	}
	if pkgs[1].Types.Scope().Lookup("N") == nil {
		t.Error("package b lost its exported function after type-checking")
	}
}

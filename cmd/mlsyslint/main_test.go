package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeModule lays out a throwaway module for exercising the CLI
// end-to-end: exit codes, SARIF emission, and the baseline workflow.
// Fixture sources go under pkg/, so the deadcode check counts their
// exports as public API.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixmod\n\ngo 1.21\n"
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanSrc = `package fixmod

// Touch is deterministic on purpose.
func Touch(n int) int { return n + 1 }
`

const findingSrc = `package fixmod

import "fmt"

// Dump renders rows in map order.
func Dump(rows map[string]int) {
	for name, n := range rows {
		fmt.Printf("%s=%d\n", name, n)
	}
}
`

func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/clean.go": cleanSrc})
	if got := run([]string{"-root", dir, "-q"}); got != exitClean {
		t.Errorf("exit = %d, want %d (clean)", got, exitClean)
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/dump.go": findingSrc})
	if got := run([]string{"-root", dir, "-q"}); got != exitFindings {
		t.Errorf("exit = %d, want %d (findings)", got, exitFindings)
	}
}

func TestExitCodeLoadError(t *testing.T) {
	dir := writeModule(t, map[string]string{"broken.go": "package fixmod\n\nfunc Oops( {\n"})
	if got := run([]string{"-root", dir, "-q"}); got != exitError {
		t.Errorf("exit = %d, want %d (parse error)", got, exitError)
	}
}

func TestExitCodeUnknownCheck(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/clean.go": cleanSrc})
	if got := run([]string{"-root", dir, "-q", "nosuchcheck"}); got != exitError {
		t.Errorf("exit = %d, want %d (unknown check)", got, exitError)
	}
}

func TestFixRewritesAndExitsClean(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/dump.go": findingSrc})
	if got := run([]string{"-root", dir, "-q", "-fix"}); got != exitClean {
		t.Errorf("exit after -fix = %d, want %d", got, exitClean)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "pkg", "dump.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(fixed) == findingSrc {
		t.Error("-fix left the source unchanged")
	}
	if got := run([]string{"-root", dir, "-q"}); got != exitClean {
		t.Errorf("re-lint after -fix = %d, want clean", got)
	}
}

func TestSARIFFile(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/dump.go": findingSrc})
	out := filepath.Join(t.TempDir(), "lint.sarif")
	if got := run([]string{"-root", dir, "-q", "-sarif", out}); got != exitFindings {
		t.Fatalf("exit = %d, want %d", got, exitFindings)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || len(doc.Runs[0].Results) == 0 {
		t.Errorf("unexpected SARIF shape: version=%q runs=%d", doc.Version, len(doc.Runs))
	}
	if doc.Runs[0].Results[0].RuleID != "maprange" {
		t.Errorf("ruleId = %q, want maprange", doc.Runs[0].Results[0].RuleID)
	}
}

func TestBaselineWorkflow(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/dump.go": findingSrc})
	baseline := filepath.Join(dir, "lint.baseline.json")

	// Record today's findings; the gate then passes against them.
	if got := run([]string{"-root", dir, "-q", "-write-baseline", "-baseline", baseline}); got != exitClean {
		t.Fatalf("write-baseline exit = %d, want %d", got, exitClean)
	}
	if got := run([]string{"-root", dir, "-q", "-baseline", baseline}); got != exitClean {
		t.Errorf("baselined lint exit = %d, want clean", got)
	}

	// New debt is not grandfathered.
	extra := filepath.Join(dir, "pkg", "more.go")
	src := "package fixmod\n\nimport \"fmt\"\n\nfunc More(rows map[string]int) {\n\tfor k := range rows {\n\t\tfmt.Println(k)\n\t}\n}\n"
	if err := os.WriteFile(extra, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-root", dir, "-q", "-baseline", baseline}); got != exitFindings {
		t.Errorf("lint with new finding exit = %d, want %d", got, exitFindings)
	}
}

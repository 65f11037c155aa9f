package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for exercising the CLI
// end-to-end: exit codes, -fix and the -json output.
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

// TestJSONOutput pins the -json schema: one object whose keys are
// exactly findings, suppressed and packages, and a finding that names
// its file, position, check and message.
func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"pkg/dump.go": findingSrc})
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	code := run([]string{"-root", dir, "-json"})
	os.Stdout = stdout
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if code != exitFindings {
		t.Errorf("exit = %d, want %d", code, exitFindings)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var doc map[string]json.RawMessage
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("-json output is not a JSON object: %v\n%s", err, data)
	}
	if dec.More() {
		t.Errorf("-json printed more than one value:\n%s", data)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "findings,packages,suppressed" {
		t.Errorf("keys = %s, want findings,packages,suppressed", got)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(doc["findings"], &findings); err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1:\n%s", len(findings), data)
	}
	f := findings[0]
	if f.File != filepath.Join("pkg", "dump.go") || f.Line != 7 || f.Col <= 0 || f.Check != "maprange" || f.Message == "" {
		t.Errorf("finding = %+v, want pkg/dump.go:7 maprange with a column and a message", f)
	}
}

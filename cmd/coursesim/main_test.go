package main

import (
	"log"
	"os"
	"strings"
	"testing"
)

// The default report — what `make repro` prints — must stay
// byte-identical. After an intended change of output, regenerate the
// golden with:
//
//	go run ./cmd/coursesim > cmd/coursesim/testdata/default-seed1.golden
func TestDefaultOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run(nil, &out); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d differs from testdata/default-seed1.golden:\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, testdata/default-seed1.golden has %d", len(got), len(wantLines))
	}
}

// A bad flag value exits non-zero with the error and no report.
func TestRunRejectsNegativeStudents(t *testing.T) {
	var msgs, out strings.Builder
	log.SetOutput(&msgs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	if code := run([]string{"-students", "-5"}, &out); code != 1 || out.Len() != 0 {
		t.Errorf("exit %d, printed %q; want exit 1 and no report", code, out.String())
	}
	if !strings.Contains(msgs.String(), "negative Students -5") {
		t.Errorf("message %q does not name the bad value", msgs.String())
	}
}

package report

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/studentsim"
)

func labsResult(t *testing.T) *studentsim.Result {
	t.Helper()
	res, err := studentsim.SimulateLabs(studentsim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTableAlignment(t *testing.T) {
	out := Table([][]string{
		{"Name", "Value"},
		{"a", "1"},
		{"long-name", "12345"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// All rows share the same width.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("misaligned row %q vs header %q", l, lines[0])
		}
	}
	if Table(nil) != "" {
		t.Error("empty table should render empty")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); len([]rune(got)) != 5 {
		t.Errorf("Bar(5,10,10) = %q", got)
	}
	if Bar(20, 10, 10) != strings.Repeat("█", 10) {
		t.Error("bar not clamped")
	}
	if Bar(1, 0, 10) != "" {
		t.Error("zero max should render empty")
	}
}

func TestTable1Renders(t *testing.T) {
	res := labsResult(t)
	out, err := Table1(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1. Hello, Chameleon", "m1.medium (x3)", "gpu_a100_pcie",
		"raspberrypi5", "NA", "Total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Renders(t *testing.T) {
	out := Fig1(labsResult(t))
	if !strings.Contains(out, "Fig 1a") || !strings.Contains(out, "Fig 1b") {
		t.Errorf("missing panels:\n%s", out)
	}
	if !strings.Contains(out, "expected") || !strings.Contains(out, "actual") {
		t.Error("missing expected/actual series")
	}
}

func TestFig2Renders(t *testing.T) {
	res := labsResult(t)
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		out, err := Fig2(res, p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "mean=$") || !strings.Contains(out, "exceed expected") {
			t.Errorf("Fig2 %s summary missing:\n%s", p, out)
		}
	}
}

func TestFig3Renders(t *testing.T) {
	proj := studentsim.SimulateProjects(studentsim.ProjectConfig{Seed: 1})
	out := Fig3(proj)
	for _, want := range []string{"m1.medium", "gpu-a100", "bare-metal", "block"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 missing %q:\n%s", want, out)
		}
	}
	// gpu-a100 and gpu-medium have exactly equal hours at seed 1: the tie
	// must break by name, not by map order.
	if a, m := strings.Index(out, "gpu-a100"), strings.Index(out, "gpu-medium"); a < 0 || m < 0 || a > m {
		t.Errorf("gpu-a100 must render above gpu-medium:\n%s", out)
	}
	for i := 0; i < 200; i++ {
		if again := Fig3(proj); again != out {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, again, out)
		}
	}
}

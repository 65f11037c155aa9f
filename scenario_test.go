package repro

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// A scenario is one invocation of a deterministic program in a fresh
// directory. Every byte it prints and every file it writes must equal a
// golden under testdata/scenarios. Two scenarios that name the same
// golden must print the same bytes.
type scenario struct {
	name, prog string // prog is the main package's directory
	args, env  []string
	stdin      string            // file under testdata/scenarios, if any
	stdout     string            // golden of standard output
	files      map[string]string // each file the program writes → its golden
	mask       string            // on a line with this prefix, the rest is ignored
}

var scenarios = []scenario{
	{name: "coursesim", prog: "cmd/coursesim", stdout: "coursesim.golden"},
	{name: "coursesim-seeds5-summary", prog: "cmd/coursesim", args: []string{"-seeds", "5", "-summary"}, stdout: "coursesim-seeds5-summary.golden"},
	// At 600 students the 600-instance course quota binds: the book holds
	// what the platform ran, not what the students planned.
	{name: "coursesim-600-summary-quota", prog: "cmd/coursesim", args: []string{"-students", "600", "-summary", "-quota"},
		stdout: "coursesim-600-summary-quota.golden"},
	// The sharded report must not depend on GOMAXPROCS, the shard size or
	// the worker count.
	{name: "sharded-gomaxprocs1", prog: "cmd/coursesim", env: []string{"GOMAXPROCS=1"}, stdout: "sharded-20000-seed1.golden",
		args: []string{"-sharded", "-students", "20000", "-shardsize", "4096", "-workers", "4"}},
	{name: "sharded-gomaxprocs8", prog: "cmd/coursesim", env: []string{"GOMAXPROCS=8"}, stdout: "sharded-20000-seed1.golden",
		args: []string{"-sharded", "-students", "20000", "-shardsize", "1777", "-workers", "8"}},
	// 2,858 shards folded into 3 worker aggregates.
	{name: "sharded-shardsize7", prog: "cmd/coursesim", env: []string{"GOMAXPROCS=2"}, stdout: "sharded-20000-seed1.golden",
		args: []string{"-sharded", "-students", "20000", "-shardsize", "7", "-workers", "3"}},
	{name: "distributed-training", prog: "examples/distributed-training", args: []string{"-incident", "incident.txt"},
		stdout: "distributed-training.golden", files: map[string]string{"incident.txt": "distributed-training-incident.golden"}},
	// An armed recorder that captures nothing must not change a byte.
	{name: "spot-training", prog: "examples/spot-training", stdout: "spot-training.golden"},
	{name: "spot-training-recorder", prog: "examples/spot-training", args: []string{"-recorder"}, stdout: "spot-training.golden"},
	{name: "quickstart", prog: "examples/quickstart", stdout: "quickstart.golden"},
	{name: "capacity-planning", prog: "examples/capacity-planning", stdout: "capacity-planning.golden"},
	{name: "edge-serving", prog: "examples/edge-serving", stdout: "edge-serving.golden"},
	{name: "data-pipeline", prog: "examples/data-pipeline", stdout: "data-pipeline.golden"},
	// The p95 line times real goroutine batching through the batcher's
	// wall-clock fill timer; on a simulated clock it would print a constant.
	{name: "gourmetgram", prog: "examples/gourmetgram", stdout: "gourmetgram.golden", mask: "serving p95 latency:"},
	{name: "costcalc-catalog", prog: "cmd/costcalc", args: []string{"-catalog"}, stdout: "costcalc-catalog.golden"},
	{name: "costcalc-expected", prog: "cmd/costcalc", args: []string{"-expected"}, stdout: "costcalc-expected.golden"},
	// The session leaves out `batch` and `tsdb stats`: they print
	// wall-clock numbers.
	{name: "chameleonctl", prog: "cmd/chameleonctl", stdin: "chameleonctl.script", stdout: "chameleonctl.golden"},
}

// ungated names each main package under cmd/ and examples/ that no
// scenario runs, with the reason.
var ungated = map[string]string{
	"cmd/bench":        "its own module: make benchgate runs its tests and goldens",
	"cmd/mlsyslint":    "its CLI tests drive it",
	"cmd/gourmetgramd": "a server that runs until killed",
	"cmd/trackingd":    "a server that runs until killed",
}

// TestScenarios builds every program a scenario names with one go build,
// then runs each scenario twice and compares every output with its golden.
func TestScenarios(t *testing.T) {
	// go test caches a pass by the test binary and the files the test
	// opened or stat'ed. It does not see the sources go build reads in a
	// subprocess, so stat them: an edit to a program must not keep a stale
	// cached pass.
	for _, root := range []string{"cmd", "examples", "internal", "pkg"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && p == filepath.Join("cmd", "bench") {
				return filepath.SkipDir
			}
			if err == nil && strings.HasSuffix(p, ".go") {
				_, err = os.Stat(p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// As in internal/testenv: this toolchain's go, not the first on PATH.
	goTool, err := exec.LookPath(filepath.Join(runtime.GOROOT(), "bin", "go"))
	if err != nil {
		goTool = "go"
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin} // go build ignores a repeated package
	for _, sc := range scenarios {
		args = append(args, "./"+sc.prog)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for run := 1; run <= 2; run++ {
				dir := t.TempDir()
				cmd := exec.Command(filepath.Join(bin, path.Base(sc.prog)), sc.args...)
				cmd.Dir, cmd.Env = dir, append(os.Environ(), sc.env...)
				if sc.stdin != "" {
					in, err := os.ReadFile(filepath.Join("testdata", "scenarios", sc.stdin))
					if err != nil {
						t.Fatal(err)
					}
					cmd.Stdin = bytes.NewReader(in)
				}
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run %d: %v\n%s", run, err, stderr.Bytes())
				}
				checkGolden(t, run, "stdout", out, "testdata/scenarios/"+sc.stdout, sc.mask)
				for file, golden := range sc.files {
					got, err := os.ReadFile(filepath.Join(dir, file))
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					checkGolden(t, run, file, got, "testdata/scenarios/"+golden, sc.mask)
				}
			}
		})
	}
}

// checkGolden compares one output with the golden file at the slash-
// separated path golden, relative to the module root. On a mismatch it
// reports the first differing line and writes the output to the same path
// under out/, less a leading testdata/, to copy over the golden if that is
// intended.
func checkGolden(t *testing.T, run int, what string, got []byte, golden, mask string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	masked, wantMasked := got, want
	if mask != "" {
		re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(mask) + ".*")
		masked, wantMasked = re.ReplaceAll(got, []byte(mask)), re.ReplaceAll(want, []byte(mask))
	}
	g, w := strings.Split(string(masked), "\n"), strings.Split(string(wantMasked), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	if i == len(g) && i == len(w) {
		return
	}
	g, w = append(g, "(end of output)"), append(w, "(end of output)")
	saved := path.Join("out", strings.TrimPrefix(golden, "testdata/"))
	if err := os.MkdirAll(filepath.Dir(saved), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(saved, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("run %d: line %d of %s differs from %s:\n got: %s\nwant: %s\nwrote the output to %s; if the change is intended, copy it over the golden",
		run, i+1, what, golden, g[i], w[i], saved)
}

// TestEveryProgramIsGated fails when a program under cmd/ or examples/ (a
// directory with a main.go) has no scenario and no reason in ungated, or
// when ungated names a directory with no program.
func TestEveryProgramIsGated(t *testing.T) {
	gated, found := map[string]bool{}, map[string]bool{}
	for _, sc := range scenarios {
		gated[sc.prog] = true
	}
	for _, pattern := range []string{"cmd/*/main.go", "examples/*/main.go"} {
		mains, _ := filepath.Glob(pattern) // fails only on a malformed pattern
		for _, m := range mains {
			dir := path.Dir(filepath.ToSlash(m))
			found[dir] = true
			if !gated[dir] && ungated[dir] == "" {
				t.Errorf("%s has no scenario and no reason in ungated", dir)
			}
		}
	}
	for dir := range ungated {
		if !found[dir] {
			t.Errorf("ungated names %s, which holds no program", dir)
		}
	}
}

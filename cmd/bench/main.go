// Command bench is the repository's benchmark: four seeded workloads
// that cover the paper pipeline, the population-scale core and an
// operated site with and without its observability stack. Each run
// checks every op's numeric results and prints its metrics by name and
// unit, ending with one JSON line.
//
// Usage, from the repository root:
//
//	bash cmd/bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out spans.json]
//	bash cmd/bench/run.sh [--runs <n>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out runs.json]
//	bash cmd/bench/run.sh --compare parent.json change.json
//
// The first form is one run of one workload. The second runs every
// workload, each in its own process, for n seeds from --seed and prints
// each metric's median and spread. The third compares two files the
// second wrote. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// runSeconds is how long one run measures by default.
const runSeconds = 20

func main() {
	var (
		name     = flag.String("workload", "", "run one workload; without it, every workload runs in its own process")
		seed     = flag.Uint64("seed", 1, "workload seed (2 is the held-out seed)")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, write the spans as Chrome trace-event JSON to this file")
		runs     = flag.Int("runs", 1, "without --workload: seeds per workload")
		out      = flag.String("out", "", "without --workload: write every run's result to this JSON file")
		compare  = flag.Bool("compare", false, "compare two files written by --out: --compare parent.json change.json")
		probe    = flag.Bool("setup-probe", false, "build the workload's inputs, run one op and exit (measures setup_s)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 0 || *runs < 1 {
		fatalf("--seconds must be >= 0 and --runs >= 1")
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("--compare takes two files")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
	case *probe:
		w, err := lookup(*name)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GOMAXPROCS(procs)
		r, err := w.prepare(*seed, fullSize)
		if err == nil {
			_, err = r.op(nil)
		}
		if err != nil {
			fatalf("%v", err)
		}
	case *name != "":
		w, err := lookup(*name)
		if err != nil {
			fatalf("%v", err)
		}
		res, err := run(runConfig{
			workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, size: fullSize,
			setup:    func() (setupRun, error) { return spawnSetup(exe, w.name, *seed) },
			traceOut: *traceOut,
			out:      os.Stdout,
		})
		if err != nil {
			fatalf("%v", err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := sweep(os.Stdout, exe, *seed, *runs, *seconds, *trace, *out); err != nil {
			fatalf("%v", err)
		}
	}
}

// spawnSetup measures one fresh process that builds the workload's
// inputs and runs a warm-up op.
func spawnSetup(exe, workload string, seed uint64) (setupRun, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--setup-probe")
	cmd.Stderr = os.Stderr
	t := time.Now()
	if err := cmd.Run(); err != nil {
		return setupRun{}, err
	}
	p := setupRun{seconds: time.Since(t).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = rssMB(ru)
	}
	return p, nil
}

// rssMB is a process's peak resident set size; Linux reports it in KiB.
func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

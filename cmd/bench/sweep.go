package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runFile holds the results of a sweep, as --out writes it.
type runFile struct {
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
}

// sweep runs every workload for n seeds from seed, one process per run
// and one run at a time, appends the results to out if set, then prints
// each metric's median and spread over all of out's runs.
func sweep(w io.Writer, exe string, seed uint64, n int, seconds float64, trace int, out string) error {
	f := runFile{Seconds: seconds, Trace: trace}
	incorrect := 0
	for _, wl := range workloads {
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
			if n == 1 {
				for _, l := range lines[:len(lines)-1] {
					fmt.Fprintf(w, "%s\n", l)
				}
			}
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d printed no result (%v): %w", wl.name, s, runErr, err)
			}
			if !res.Correct {
				incorrect++
			}
			f.Runs = append(f.Runs, runRecord{Workload: wl.name, Seed: s, Result: res})
			fmt.Fprintf(w, "%-13s seed %-4d correct=%-5v failed %d of %d ops\n",
				wl.name, s, res.Correct, res.Failed, res.Attempted)
		}
	}
	if out != "" {
		// Appending lets parent and change runs alternate seed by seed,
		// so drift of a shared host does not read as a difference.
		if data, err := os.ReadFile(out); err == nil {
			var old runFile
			if err := json.Unmarshal(data, &old); err != nil || old.Seconds != f.Seconds || old.Trace != f.Trace {
				return fmt.Errorf("%s holds other runs; not appending to it", out)
			}
			f.Runs = append(old.Runs, f.Runs...)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	summarize(w, &f)
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", incorrect)
	}
	return nil
}

// values collects one metric of one workload across a file's runs, in
// run order, with the seeds they came from.
func (f *runFile) values(workload, metric string) (vs []float64, seeds []uint64) {
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vs, seeds
}

// summarize prints, per workload and metric, the median and quartiles
// over runs and the spread (IQR / median). An end-to-end metric is
// steady when its spread stays below a third of its bound.
func summarize(w io.Writer, f *runFile) {
	type row struct{ name, unit, note string }
	var rows []row
	if f.Trace == 0 {
		for _, m := range endToEnd {
			note := "steady"
			if !spreadBounded(m) {
				note = "spread not bounded"
			}
			rows = append(rows, row{m.Name, m.Unit, note})
		}
	} else {
		for _, m := range perLayer {
			rows = append(rows, row{m.Name, m.Unit, ""})
		}
	}
	fmt.Fprintf(w, "\n%-13s %-34s %14s %14s %14s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, wl := range workloads {
		for _, r := range rows {
			vs, _ := f.values(wl.name, r.name)
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			note := r.note
			if m, ok := e2eByName(r.name); ok && note == "steady" && spread(vs) >= m.Bound/3 {
				note = fmt.Sprintf("WIDE: spread >= bound/3 (%.4f)", m.Bound/3)
			}
			fmt.Fprintf(w, "%-13s %-34s %14.4f %14.4f %14.4f %7.2f%%  %s %s\n",
				wl.name, r.name, q1, q2, q3, 100*spread(vs), r.unit, note)
		}
	}
}

// spreadBounded reports whether a metric's run-to-run spread must stay
// within its bound. setup_s is measured over a handful of process starts
// per run, so only its median is held to the bound.
func spreadBounded(m e2eMetric) bool { return m.Name != "setup_s" }

func e2eByName(name string) (e2eMetric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return e2eMetric{}, false
}

func loadRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Trace != 0 {
		return nil, fmt.Errorf("%s holds traced runs; compare untraced ones", path)
	}
	return &f, nil
}

// compareFiles gives a verdict for every end-to-end metric and workload
// of a parent and a change: better, worse, unresolved, or same (within
// the bound). It fails when any pair is worse or unresolved.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := loadRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-20s %12s %12s %12s | %12s %12s %12s  %s\n",
		"workload", "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			pv, ps := parent.values(wl.name, m.Name)
			cv, cs := change.values(wl.name, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := verdict(m, pv, ps, cv, cs)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			fmt.Fprintf(w, "%-13s %-20s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f  %s\n",
				wl.name, m.Name, p1, p2, p3, c1, c2, c3, v)
		}
	}
	if bad > 0 {
		return errors.New("some metrics are worse or unresolved")
	}
	return nil
}

// verdict applies the benchmark's rules to one metric of one workload.
// A spread wider than the bound leaves a spread-bounded metric
// unresolved unless every run of the change beats every run of the
// parent. A gain needs the change to win nine in ten runs paired by
// seed and the medians to differ by more than the parent's
// interquartile range.
func verdict(m e2eMetric, pv []float64, ps []uint64, cv []float64, cs []uint64) string {
	better := func(a, b float64) bool { // a is better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pMed, cMed := median(pv), median(cv)
	if spreadBounded(m) && (spread(pv) > m.Bound || spread(cv) > m.Bound) {
		for _, c := range cv {
			for _, p := range pv {
				if !better(c, p) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if better(pMed, cMed) && math.Abs(cMed-pMed) > m.Bound*math.Abs(pMed) {
		return "worse"
	}
	wins, pairs := 0, 0
	for i, s := range cs {
		for j, t := range ps {
			if s == t {
				pairs++
				if better(cv[i], pv[j]) {
					wins++
				}
			}
		}
	}
	q1, _, q3 := quartiles(pv)
	if pairs > 0 && wins*10 >= 9*pairs && better(cMed, pMed) && math.Abs(cMed-pMed) > q3-q1 {
		return "better"
	}
	return "same"
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"syscall"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the seed-1 goldens and ../../BENCHMARK.json")

// tiny keeps the smoke pass to a few seconds.
var tiny = size{shardStudents: 10_000, siteHours: 48}

// inProcessSetup stands in for spawning the benchmark binary, which a
// test binary cannot do.
func inProcessSetup(w workload, sz size) func() (setupRun, error) {
	return func() (setupRun, error) {
		t := time.Now()
		r, err := w.prepare(1, sz)
		if err == nil {
			_, err = r.op(nil)
		}
		var ru syscall.Rusage
		if err == nil {
			err = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		}
		return setupRun{seconds: time.Since(t).Seconds(), rssMB: rssMB(&ru)}, err
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run is correct and reports every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(runConfig{
				workload: w, seed: 3, traced: traced, size: tiny,
				setup: inProcessSetup(w, tiny), out: &out,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := map[string]string{}
			if traced {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				}
			}
			if !traced && res.Metrics["op_ms_p50"].Value <= 0 {
				t.Errorf("%s: op_ms_p50 = %v", w.name, res.Metrics["op_ms_p50"].Value)
			}
		}
	}
}

// TestTracedOpAgrees checks that the traced path of every workload
// computes what the untraced path computes.
func TestTracedOpAgrees(t *testing.T) {
	for _, w := range workloads {
		r, err := w.prepare(5, tiny)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := r.op(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := &tracer{}
		tr.reset()
		traced, err := r.op(tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if err := traced.diff(plain, 0); err != nil {
			t.Errorf("%s: traced op disagrees: %v", w.name, err)
		}
		if len(tr.spans) == 0 || len(tr.open) != 0 {
			t.Errorf("%s: %d spans, %d left open", w.name, len(tr.spans), len(tr.open))
		}
	}
}

// TestGoldens checks the committed seed-1 goldens against full-size
// runs; -update rewrites them. It takes a few seconds, so -short skips
// it; the benchmark checks the same goldens on every seed-1 run.
func TestGoldens(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("full-size runs")
	}
	for _, w := range workloads {
		r, err := w.prepare(1, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.op(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if *update {
			if err := os.WriteFile(goldenPath(w.name), []byte(d.text()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := checkGolden(w.name, d); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if err := r.check(d); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// manifest is BENCHMARK.json: how to run the benchmark and what it
// reports.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []e2eMetric        `json:"end_to_end"`
	PerLayer   []layerMetric      `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const manifestPath = "../../BENCHMARK.json"

// TestManifest checks that BENCHMARK.json lists exactly the workloads
// and metrics this package defines; -update rewrites it.
func TestManifest(t *testing.T) {
	m := manifest{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(manifestPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("%s is stale; run go test -update in cmd/bench", manifestPath)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := e2eMetric{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"identical", base, "same"},
		{"slightly slower", scale(1.05), "same"},
		{"much slower", scale(1.2), "worse"},
		{"faster", scale(0.9), "better"},
		{"noisy", wide, "unresolved"},
	} {
		if got := verdict(m, base, seeds, c.change, seeds); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

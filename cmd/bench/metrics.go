package main

import (
	"fmt"
	"math"
	"sort"
)

// e2eMetric is an end-to-end metric. Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the repository sees, measured with
// tracing off. Every workload reports every one of them. The bounds are
// set from the spread (IQR / median) of ten seeds per workload on a
// shared 2-vCPU host: op times drifted with outside load by 3–22% within
// a sweep and up to 22% between sweeps, so a tighter time bound would
// flag noise; allocation counts spread under 1% and set-up RSS under 5%.
var endToEnd = []e2eMetric{
	// Spawning the benchmark binary afresh, building the workload's
	// inputs from the seed and running one op, to exit; median of
	// setupRuns processes. Work moved out of the timed ops lands here.
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one op over the timed ops.
	{"op_ms_p50", "ms", "lower", 0.25},
	// runtime.MemStats TotalAlloc and Mallocs over the timed ops, per op.
	{"alloc_bytes_per_op", "B", "lower", 0.03},
	{"allocs_per_op", "count", "lower", 0.03},
	// getrusage max RSS of those set-up processes, median: the memory a
	// user sees running the workload once.
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// layerMetric is a per-layer metric of the traced run. A workload that
// never enters a layer reports 0 for it.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	value  func(l *layers) float64
}

func spanMs(names ...string) func(*layers) float64 {
	return func(l *layers) float64 { return l.perOpMs(names...) }
}

func callUs(name string, q float64) func(*layers) float64 {
	return func(l *layers) float64 { return quantile(l.callUs[name], q) }
}

func counted(name string) func(*layers) float64 {
	return func(l *layers) float64 { return l.count(name) }
}

func measured(name string) func(*layers) float64 {
	return func(l *layers) float64 { return l.run[name] }
}

// eventDriver names the span that runs each workload's simclock events.
var eventDrivers = []string{"studentsim.SimulateLabs", "shardsim.Run", "simclock.RunUntil"}

var perLayer = []layerMetric{
	// repro-191
	{"studentsim.labs_ms", "ms", "lower", spanMs("studentsim.SimulateLabs")},
	{"studentsim.labs_alloc_bytes", "B", "lower", counted("studentsim.labs_alloc_bytes")},
	{"studentsim.projects_ms", "ms", "lower", spanMs("studentsim.SimulateProjects")},
	{"studentsim.fig2_ms", "ms", "lower", spanMs("studentsim.Fig2")},
	{"cost.price_ms", "ms", "lower", spanMs("cost.LabCost", "cost.ProjectCost")},
	{"support.sim_ms", "ms", "lower", spanMs("support.Simulate")},
	{"core.peak_ms", "ms", "lower", spanMs("core.PeakConcurrency")},
	{"core.peak_alloc_bytes", "B", "lower", counted("core.peak_alloc_bytes")},
	{"cloud.meter_records", "count", "lower", counted("cloud.meter_records")},
	{"report.render_ms", "ms", "lower", spanMs("report.Table1", "report.Fig1", "report.Fig2", "report.Fig3", "report.Table")},
	// sharded-100k
	{"shardsim.run_ms", "ms", "lower", spanMs("shardsim.Run")},
	{"shardsim.students_per_s", "1/s", "higher", func(l *layers) float64 {
		t := l.perOpMs("shardsim.Run")
		if t == 0 {
			return 0
		}
		return l.count("shardsim.students") / (t / 1000)
	}},
	{"shardsim.alloc_bytes_per_student", "B", "lower", counted("shardsim.alloc_bytes_per_student")},
	{"shardsim.allocs_per_student", "count", "lower", counted("shardsim.allocs_per_student")},
	{"shardsim.parallel_eff", "ratio", "higher", measured("shardsim.parallel_eff")},
	{"report.sharded_ms", "ms", "lower", spanMs("report.Sharded")},
	// ops-observed and ops-bare
	{"orchestrator.sync_us_p50", "us", "lower", callUs("orchestrator.SyncFromCloud", 0.5)},
	{"orchestrator.sync_us_p99", "us", "lower", callUs("orchestrator.SyncFromCloud", 0.99)},
	{"cloud.instances_total", "count", "lower", counted("cloud.instances_total")},
	{"cloud.launch_us_p50", "us", "lower", callUs("cloud.Launch", 0.5)},
	{"cloud.launches", "count", "higher", counted("cloud.launches")},
	{"cloud.launch_failures", "count", "lower", counted("cloud.launch_failures")},
	{"chaos.injected", "count", "lower", counted("chaos.injected")},
	// ops-observed only
	{"tsdb.scrape_us_p50", "us", "lower", callUs("tsdb.Scrape", 0.5)},
	{"tsdb.scrape_us_p99", "us", "lower", callUs("tsdb.Scrape", 0.99)},
	{"tsdb.samples_per_scrape", "count", "lower", counted("tsdb.samples_per_scrape")},
	{"alert.step_us_p50", "us", "lower", callUs("alert.Step", 0.5)},
	{"alert.step_us_p99", "us", "lower", callUs("alert.Step", 0.99)},
	{"tsdb.query_us_p50", "us", "lower", callUs("tsdb.Query", 0.5)},
	{"report.dashboard_ms", "ms", "lower", spanMs("report.Dashboard")},
	{"logging.records", "count", "lower", counted("logging.records")},
	{"trace.traces", "count", "lower", counted("trace.traces")},
	{"flightrec.incidents", "count", "lower", counted("flightrec.incidents")},
	// Observed over bare median op time, minus 1 (both ops workloads).
	{"obs.overhead_frac", "ratio", "lower", measured("obs.overhead_frac")},
	// Every workload.
	{"simclock.events", "count", "lower", counted("simclock.events")},
	{"simclock.ns_per_event", "ns", "lower", func(l *layers) float64 {
		ev := l.count("simclock.events")
		if ev == 0 {
			return 0
		}
		return l.perOpMs(eventDrivers...) * 1e6 / ev
	}},
	{"runtime.gc_cpu_frac", "ratio", "lower", measured("runtime.gc_cpu_frac")},
	{"runtime.gc_cycles", "count", "lower", measured("runtime.gc_cycles")},
	// Traced over untraced median op time, minus 1: the cost of tracing.
	{"bench.trace_overhead_frac", "ratio", "lower", measured("bench.trace_overhead_frac")},
	// Smallest share of a traced op's wall time covered by layer spans.
	{"bench.span_coverage", "ratio", "higher", measured("bench.span_coverage")},
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the "exclusive" method), so spreads read the same here
// and in tools that use it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tail is the highest of p99, p90 and p75 that has at least ten samples
// beyond it.
func tail(xs []float64) (label string, v float64, beyond int, ok bool) {
	for _, pct := range []int{99, 90, 75} {
		if k := len(xs) * (100 - pct) / 100; k >= 10 {
			return fmt.Sprintf("p%d", pct), quantile(xs, float64(pct)/100), k, true
		}
	}
	return "", 0, 0, false
}

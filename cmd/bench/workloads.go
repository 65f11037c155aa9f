package main

import "fmt"

// size holds the input sizes of the workloads. The benchmark always
// runs fullSize; the smoke test runs tiny ones.
type size struct {
	shardStudents int     // sharded-100k population
	siteHours     float64 // ops-* simulated horizon
}

var fullSize = size{shardStudents: 100_000, siteHours: 840}

// runner is a workload whose inputs have been built from a seed.
type runner interface {
	// op runs one unit of work and returns its numeric result. tr is nil
	// in untraced ops.
	op(tr *tracer) (*digest, error)
	// check validates an op's result beyond agreement between ops.
	check(d *digest) error
	// sibling returns the same work in another configuration, or nil.
	sibling() *sibling
}

// sibling is a second configuration of a workload that the traced run
// times beside it. Its results must match the workload's on the digest
// entries under agree, and relate turns the two median op times into a
// run-level layer metric.
type sibling struct {
	runner
	agree  string
	relate func(opMs, siblingMs float64) (name string, value float64)
}

// workload is one entry of the benchmark: a name, the reason it exists,
// and how it builds its inputs from a seed.
type workload struct {
	name    string
	why     string
	prepare func(seed uint64, sz size) (runner, error)
}

// procs is the GOMAXPROCS every timed op runs with. On one core the
// garbage collector's work is charged to the op that caused it. On a
// shared two-core host, shard runs that let the collector and the
// workers use both cores varied by ±17% between 6 s windows; on one
// core, by ±5%. The parallel shard run is measured as sharded-100k's
// sibling.
const procs = 1

// workloads are run one at a time, closed loop: one client issuing ops
// back to back.
var workloads = []workload{
	{
		name: "repro-191",
		why:  "the make-repro pipeline at the paper's 191 students: lab sim on cloud/lease and one simclock heap, pricing, figures, quota and reservation plans",
		prepare: func(seed uint64, sz size) (runner, error) {
			return &repro{seed: seed}, nil
		},
	},
	{
		name: "sharded-100k",
		why:  "the population-scale core on one worker: many small per-shard heaps, allocation and GC bound, bypassing cloud, lease and observability",
		prepare: func(seed uint64, sz size) (runner, error) {
			return &sharded{students: sz.shardStudents, seed: seed, workers: 1}, nil
		},
	},
	{
		name: "ops-observed",
		why:  "a site semester with lab churn, host crashes and hourly cloud sync, watched by the full metrics/alert/log/trace/recorder stack, then a read phase",
		prepare: func(seed uint64, sz size) (runner, error) {
			return newSite(seed, sz.siteHours, true), nil
		},
	},
	{
		name: "ops-bare",
		why:  "the same site semester with every observability hook left nil: it bypasses observability, so ops-observed minus ops-bare is what watching costs",
		prepare: func(seed uint64, sz size) (runner, error) {
			return newSite(seed, sz.siteHours, false), nil
		},
	},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

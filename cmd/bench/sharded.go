package main

import (
	"fmt"
	"runtime"

	"repro/internal/report"
	"repro/internal/shardsim"
	"repro/internal/stats"
)

// sharded is the population-scale core: one shardsim.Run and its report.
// It runs with GOMAXPROCS = workers.
type sharded struct {
	students int
	seed     uint64
	workers  int
}

func (s *sharded) op(tr *tracer) (*digest, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.workers))
	b0, n0 := tr.heap()
	sp := tr.begin("shardsim.Run")
	rep, err := shardsim.Run(shardsim.Config{Students: s.students, Seed: s.seed, Workers: s.workers})
	tr.end(sp)
	b1, n1 := tr.heap()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("report.Sharded")
	_ = report.Sharded(rep)
	tr.end(sp)

	n := float64(s.students)
	tr.count("shardsim.students", n)
	tr.count("shardsim.alloc_bytes_per_student", float64(b1-b0)/n)
	tr.count("shardsim.allocs_per_student", float64(n1-n0)/n)
	tr.count("simclock.events", float64(rep.Events))

	d := &digest{}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		addAcc(d, "row."+r.Row.ID+".instances", r.Instances)
		addAcc(d, "row."+r.Row.ID+".fips", r.FIPs)
		d.addInt("row."+r.Row.ID+".clipped_micro_hours", r.ClippedMicroHours)
	}
	for _, c := range []struct {
		name string
		c    shardsim.CostTotals
	}{{"aws", rep.AWS}, {"gcp", rep.GCP}} {
		addAcc(d, "cost."+c.name+".per_student", c.c.PerStudent)
		d.addInt("cost."+c.name+".exceed", c.c.Exceed)
		d.addInt("cost."+c.name+".hist.under", c.c.Hist.Under)
		for i, v := range c.c.Hist.Counts {
			d.addInt(fmt.Sprintf("cost.%s.hist.%d", c.name, i), v)
		}
	}
	p := rep.Occupancy.Peak()
	d.addInt("peak.instances", p.Instances)
	d.addInt("peak.cores", p.Cores)
	d.addInt("peak.floating_ips", p.FloatingIPs)
	d.addInt("peak.hour", int64(p.PeakHour))
	return d, nil
}

func addAcc(d *digest, name string, a stats.Acc) {
	d.addInt(name+".n", a.N)
	d.addInt(name+".sum_micro", a.SumMicro)
	d.add(name+".min", a.MinV)
	d.add(name+".max", a.MaxV)
}

func (s *sharded) check(*digest) error { return nil }

// sibling is the same run on nproc workers: the report must not depend
// on the worker count. It gives the parallel efficiency,
// T(1 worker) / (nproc × T(nproc workers)).
func (s *sharded) sibling() *sibling {
	all := *s
	all.workers = runtime.NumCPU()
	return &sibling{runner: &all, relate: func(oneMs, allMs float64) (string, float64) {
		return "shardsim.parallel_eff", oneMs / (float64(all.workers) * allMs)
	}}
}

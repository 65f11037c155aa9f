package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

const (
	// setupRuns is how many fresh processes measure setup_s and
	// peak_rss_mb.
	setupRuns = 5
	// minCoverage is the share of each traced op that layer spans must
	// cover, or the per-layer numbers leave too much unexplained.
	minCoverage = 0.90
)

// runConfig is one run of one workload.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64
	traced   bool
	size     size
	// setup measures one set-up: spawn, build inputs, one warm-up op.
	setup    func() (setupRun, error)
	traceOut string
	out      io.Writer // human-readable report
}

// setupRun is one fresh process that built the workload's inputs and
// ran one op: its wall time from spawn to exit and its peak RSS.
type setupRun struct {
	seconds, rssMB float64
}

// result is the run's outcome in the form the last line of output
// carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session counts ops and checks each against the first op's digest.
type session struct {
	cfg      runConfig
	r        runner
	ref      *digest
	res      result
	failures []string
}

// record counts one op, which failed if any of its checks did.
func (s *session) record(checks ...error) {
	s.res.Attempted++
	for _, err := range checks {
		if err != nil {
			s.res.Failed++
			if len(s.failures) < 10 {
				s.failures = append(s.failures, err.Error())
			}
			return
		}
	}
}

// agrees checks an op's result against the reference digest on the
// entries under prefix.
func (s *session) agrees(d *digest, err error, prefix string) error {
	if err != nil {
		return fmt.Errorf("op: %w", err)
	}
	if err := d.subset(prefix).diff(s.ref.subset(prefix), 0); err != nil {
		return fmt.Errorf("op disagrees with the first op: %w", err)
	}
	return nil
}

// timed runs one op and returns its wall time in ms.
func timed(r runner, tr *tracer) (*digest, float64, error) {
	t := time.Now()
	if tr == nil {
		d, err := r.op(nil)
		return d, ms(time.Since(t)), err
	}
	tr.reset()
	root := tr.begin("bench.op")
	d, err := r.op(tr)
	tr.end(root)
	return d, ms(time.Since(t)), err
}

// run executes one benchmark run: set-up, a warm-up op that gives the
// reference digest, then ops back to back for cfg.seconds.
func run(cfg runConfig) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r, err := cfg.workload.prepare(cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	s := &session{cfg: cfg, r: r, res: result{Metrics: map[string]metric{}}}

	var setups, rss []float64
	if !cfg.traced {
		for i := 0; i < setupRuns; i++ {
			p, err := cfg.setup()
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i+1, err)
			}
			setups = append(setups, p.seconds)
			rss = append(rss, p.rssMB)
		}
	}

	d, _, err := timed(r, nil)
	if err != nil {
		s.record(fmt.Errorf("op: %w", err))
	} else {
		s.ref = d
		var golden error
		if cfg.seed == 1 && cfg.size == fullSize {
			golden = checkGolden(cfg.workload.name, d)
		}
		s.record(r.check(d), golden)
	}
	fmt.Fprintf(cfg.out, "%s seed %d: digest %s\n", cfg.workload.name, cfg.seed, digestSum(s.ref))
	if s.ref != nil {
		if cfg.traced {
			err = s.traced()
		} else {
			s.untraced(setups, rss)
		}
	}
	for _, f := range s.failures {
		fmt.Fprintf(cfg.out, "FAIL %s\n", f)
	}
	s.res.Correct = s.res.Failed == 0
	return &s.res, err
}

func digestSum(d *digest) string {
	if d == nil {
		return "none"
	}
	return d.sum()
}

func (s *session) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// untraced times ops with tracing off and reports the end-to-end metrics.
func (s *session) untraced(setups, rss []float64) {
	var times []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(times) == 0 || time.Since(start).Seconds() < s.cfg.seconds {
		d, t, err := timed(s.r, nil)
		times = append(times, t)
		s.record(s.agrees(d, err, ""))
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(times))
	values := map[string]float64{
		"setup_s":            median(setups),
		"op_ms_p50":          median(times),
		"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		"allocs_per_op":      float64(m1.Mallocs-m0.Mallocs) / n,
		"peak_rss_mb":        median(rss),
	}
	out := s.cfg.out
	fmt.Fprintf(out, "%d timed ops in %.1f s, closed loop, one client; %d of %d ops failed\n",
		len(times), time.Since(start).Seconds(), s.res.Failed, s.res.Attempted)
	for _, m := range endToEnd {
		s.set(m.Name, m.Unit, values[m.Name])
		fmt.Fprintf(out, "  %-20s %14.4f %-5s", m.Name, values[m.Name], m.Unit)
		switch m.Name {
		case "setup_s":
			fmt.Fprintf(out, " median of %d: %.4f", len(setups), setups)
		case "peak_rss_mb":
			fmt.Fprintf(out, " median of %d: %.2f", len(rss), rss)
		case "op_ms_p50":
			q1, _, q3 := quartiles(times)
			fmt.Fprintf(out, " q1 %.4f q3 %.4f n=%d", q1, q3, len(times))
			if label, v, k, ok := tail(times); ok {
				fmt.Fprintf(out, "; op_ms_tail %s %.4f ms, %d samples beyond", label, v, k)
			} else {
				fmt.Fprintf(out, "; op_ms_tail needs >= 40 ops")
			}
		}
		fmt.Fprintln(out)
	}
}

// gcCounters reads the runtime's cumulative GC CPU, total CPU and GC
// cycle counts.
func gcCounters() (gcCPU, totalCPU, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// traced alternates an untraced op, a traced op and, where the workload
// has one, its sibling configuration, and reports the per-layer metrics.
func (s *session) traced() error {
	tr := &tracer{}
	agg := newLayers()
	sib := s.r.sibling()
	var plain, traced, sibling []float64
	var gcCPU, totalCPU, cycles float64
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < s.cfg.seconds {
		g0, c0, n0 := gcCounters()
		d, t, err := timed(s.r, nil)
		g1, c1, n1 := gcCounters()
		gcCPU, totalCPU, cycles = gcCPU+g1-g0, totalCPU+c1-c0, cycles+n1-n0
		plain = append(plain, t)
		s.record(s.agrees(d, err, ""))

		offset := time.Since(start)
		d, t, err = timed(s.r, tr)
		traced = append(traced, t)
		agg.add(tr, offset)
		var covered error
		// Small inputs leave the fixed cost of building a site unspanned.
		if c := agg.coverage[len(agg.coverage)-1]; c < minCoverage && s.cfg.size == fullSize {
			covered = fmt.Errorf("spans cover %.1f%% of a traced op, want >= %.0f%%", 100*c, 100*minCoverage)
		}
		s.record(s.agrees(d, err, ""), covered)

		if sib != nil {
			d, t, err = timed(sib, nil)
			sibling = append(sibling, t)
			s.record(s.agrees(d, err, sib.agree))
		}
	}
	agg.run["runtime.gc_cycles"] = cycles / float64(len(plain))
	if totalCPU > 0 {
		agg.run["runtime.gc_cpu_frac"] = gcCPU / totalCPU
	}
	agg.run["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	agg.run["bench.span_coverage"] = agg.worstCoverage()
	if sib != nil {
		name, v := sib.relate(median(plain), median(sibling))
		agg.run[name] = v
	}

	out := s.cfg.out
	fmt.Fprintf(out, "%d untraced, %d traced, %d sibling ops in %.1f s; %d of %d ops failed\n",
		len(plain), len(traced), len(sibling), time.Since(start).Seconds(), s.res.Failed, s.res.Attempted)
	agg.writeTable(out)
	for _, m := range perLayer {
		v := m.value(agg)
		s.set(m.Name, m.Unit, v)
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", m.Name, v, m.Unit)
	}
	if s.cfg.traceOut != "" {
		if err := agg.writeChrome(s.cfg.traceOut); err != nil {
			return fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Fprintf(out, "wrote %d spans to %s\n", len(agg.chrome), s.cfg.traceOut)
	}
	return nil
}

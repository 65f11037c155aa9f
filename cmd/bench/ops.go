package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/alert"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/flightrec"
	"repro/internal/logging"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// The site: orchestrator nodes pinned one M1XLarge per 8-vCPU host (the
// chaos e2e layout) running a 6-replica deployment, and separate VM
// hosts carrying lab churn sized to the paper's load (109,837 lab hours
// over 2,520 semester hours is ≈45 concurrent VMs).
const (
	nodeHosts     = 8
	labHosts      = 24
	replicas      = 6
	labsPerHour   = 3
	labMeanHours  = 15
	labSigma      = 1.2
	syncEvery     = 1.0  // control loop: SyncFromCloud, then replace dead nodes
	scrapeEvery   = 0.25 // collector scrape + alert evaluation
	crashMTBF     = 48   // host crashes across the node hosts
	repairMean    = 3
	retentionH    = 168
	queryInstants = 6
)

var readQueries = []string{
	"rate(cloud.launches[1h])",
	"increase(orchestrator.reschedule_latency_hours_count[24h])",
	"histogram_quantile(0.95, increase(orchestrator.reschedule_latency_hours_bucket[24h]))",
	"sum(train.steps)",
}

// site is one semester of an operated site, built from a seed: the lab
// launch schedule and the host-crash plan are its inputs. watched turns
// on the observability stack; the platform outcome must not change.
type site struct {
	seed      uint64
	hours     float64
	watched   bool
	nodeHosts []string
	labs      []labVM
	plan      chaos.Plan
}

type labVM struct {
	name     string
	at, life float64
}

func newSite(seed uint64, hours float64, watched bool) *site {
	s := &site{seed: seed, hours: hours, watched: watched}
	for i := 0; i < nodeHosts; i++ {
		s.nodeHosts = append(s.nodeHosts, fmt.Sprintf("node-host-%02d", i))
	}
	// A fixed number of launches with jittered times keeps the work per
	// op the same across seeds; lifetimes are log-normal.
	rng := stats.NewRNG(seed).Split(1)
	s.labs = make([]labVM, int(hours*labsPerHour))
	for i := range s.labs {
		s.labs[i] = labVM{
			name: fmt.Sprintf("lab-%d", i),
			at:   (float64(i) + rng.Float64()) / labsPerHour,
			life: rng.LogNormalMean(labMeanHours, labSigma),
		}
	}
	s.plan = chaos.Generate(seed, chaos.GenSpec{
		Horizon:         hours,
		Hosts:           s.nodeHosts,
		HostCrashMTBF:   crashMTBF,
		MeanRepairHours: repairMean,
	})
	return s
}

// watch is the observability stack of a watched semester.
type watch struct {
	bus      *telemetry.Bus
	logger   *logging.Logger
	tracer   *trace.Tracer
	coll     *tsdb.Collector
	mon      *alert.Engine
	rec      *flightrec.Recorder
	ok, miss *telemetry.Counter
}

func (s *site) op(tr *tracer) (*digest, error) {
	clk := simclock.New()
	cl := cloud.New("site", clk)
	for _, h := range s.nodeHosts {
		cl.AddHost(cloud.NewVMHost(h, 8, 16))
	}
	for i := 0; i < labHosts; i++ {
		cl.AddHost(cloud.NewVMHost(fmt.Sprintf("lab-host-%02d", i), 8, 16))
	}
	cl.CreateProject("mlops", cloud.CourseQuota())
	cl.CreateProject("course", cloud.CourseQuota())
	orch := orchestrator.NewCluster()
	orch.SetClock(clk)

	var w *watch
	if s.watched {
		w = &watch{bus: telemetry.New()}
		w.logger = logging.New(s.seed, clk.Now)
		w.logger.SetTelemetry(w.bus)
		w.tracer = trace.New(s.seed, clk.Now)
		cl.SetTelemetry(w.bus)
		cl.SetLogging(w.logger)
		orch.SetTelemetry(w.bus)
		orch.SetTracer(w.tracer)
		orch.SetLogging(w.logger)
	}
	var bus *telemetry.Bus
	if w != nil {
		bus = w.bus
	}
	eng := chaos.New(clk, bus)
	eng.SetHostFailer(cl)

	var launches, launchFailures, deleteErrors int64
	launch := func(project, name string, f cloud.Flavor) *cloud.Instance {
		sp := tr.begin("cloud.Launch")
		inst, err := cl.Launch(cloud.LaunchSpec{Project: project, Name: name, Flavor: f})
		tr.end(sp)
		if err != nil {
			launchFailures++
			return nil
		}
		launches++
		return inst
	}

	nodes := make([]*cloud.Instance, nodeHosts)
	for i := range nodes {
		name := fmt.Sprintf("node-%d", i)
		if nodes[i] = launch("mlops", name, cloud.M1XLarge); nodes[i] == nil {
			return nil, fmt.Errorf("launching orchestrator node %s failed", name)
		}
		orch.AddNode(name, 4000, 8192)
	}
	orch.Apply(orchestrator.Deployment{Name: "train", Replicas: replicas,
		Spec: orchestrator.PodSpec{Image: "train:v1", CPUMilli: 2000, MemMB: 2048}})
	sp := tr.begin("orchestrator.ReconcileToFixedPoint")
	orch.ReconcileToFixedPoint()
	tr.end(sp)

	if w != nil {
		eng.SetLogging(w.logger)
		w.arm(eng)
	}
	sp = tr.begin("chaos.Arm")
	eng.Arm(s.plan)
	tr.end(sp)

	done := func() bool { return clk.Now() >= s.hours }
	// The control loop notices crashed nodes, then the operator replaces
	// each dead node's instance under the same name; the next sync
	// marks the node ready again.
	clk.Every(syncEvery, syncEvery, "control-loop", func() {
		sp := tr.begin("orchestrator.SyncFromCloud")
		orch.SyncFromCloud(cl)
		tr.end(sp)
		for i, inst := range nodes {
			if !inst.Running() {
				if repl := launch("mlops", inst.Name, cloud.M1XLarge); repl != nil {
					nodes[i] = repl
				}
			}
		}
	}, done)
	for _, lab := range s.labs {
		clk.At(lab.at, "lab-launch", func() {
			inst := launch("course", lab.name, cloud.M1Medium)
			if inst == nil || lab.at+lab.life >= s.hours {
				return
			}
			clk.At(lab.at+lab.life, "lab-delete", func() {
				sp := tr.begin("cloud.Delete")
				err := cl.Delete(inst.ID)
				tr.end(sp)
				if err != nil {
					deleteErrors++
				}
			})
		})
	}
	if w != nil {
		byName := map[string]int{}
		for i, n := range nodes {
			byName[n.Name] = i
		}
		// One training step per pod per tick, missed while the pod has no
		// live node: the SLO's raw material.
		clk.Every(scrapeEvery, scrapeEvery, "train-heartbeat", func() {
			sp := tr.begin("orchestrator.Pods")
			pods := orch.Pods("train")
			tr.end(sp)
			for _, p := range pods {
				if i, ok := byName[p.Node]; ok && nodes[i].Running() {
					w.ok.Inc()
				} else {
					w.miss.Inc()
				}
			}
		}, done)
		clk.Every(0, scrapeEvery, "scrape", func() {
			now := clk.Now()
			sp := tr.begin("tsdb.Scrape")
			w.coll.Scrape(now)
			tr.end(sp)
			sp = tr.begin("alert.Step")
			w.mon.Step(now)
			tr.end(sp)
		}, done)
	}

	sp = tr.begin("simclock.RunUntil")
	clk.RunUntil(s.hours)
	tr.end(sp)

	if w != nil {
		if err := s.read(tr, w, clk.Now()); err != nil {
			return nil, err
		}
	}

	now := clk.Now()
	injected, recovered, injectErrors := eng.Stats()
	instances := len(cl.List(nil))
	rs := orch.Resilience()
	d := &digest{}
	d.add("platform.meter_hours", cl.Meter().TotalHours(now, nil))
	hours := cl.Meter().HoursByResource(now, cloud.UsageInstance, nil)
	for _, f := range []cloud.Flavor{cloud.M1XLarge, cloud.M1Medium} {
		d.add("platform.meter_hours."+f.Name, hours[f.Name])
	}
	d.addInt("platform.instances", int64(instances))
	d.addInt("platform.launches", launches)
	d.addInt("platform.launch_failures", launchFailures)
	d.addInt("platform.delete_errors", deleteErrors)
	d.addInt("platform.evictions", rs.Evictions)
	d.addInt("platform.reschedules", rs.Reschedules)
	d.add("platform.mean_mttr_hours", rs.MeanMTTRHrs)
	d.addInt("platform.chaos.injected", injected)
	d.addInt("platform.chaos.recovered", recovered)
	d.addInt("platform.chaos.inject_errors", injectErrors)

	tr.count("simclock.events", float64(clk.Executed()))
	tr.count("cloud.instances_total", float64(instances))
	tr.count("cloud.launches", float64(launches))
	tr.count("cloud.launch_failures", float64(launchFailures))
	tr.count("chaos.injected", float64(injected))
	if w == nil {
		return d, nil
	}

	timeline := w.mon.Timeline()
	d.addInt("watch.transitions", int64(len(timeline)))
	for i, t := range timeline {
		key := fmt.Sprintf("watch.t%d.%s.%s-%s", i, t.Rule, t.From, t.To)
		d.add(key+".at", t.At)
		d.add(key+".value", t.Value)
	}
	d.addInt("watch.incidents", w.rec.Captures())

	if tr != nil {
		scrapes, samples := w.coll.Stats()
		tr.count("tsdb.samples_per_scrape", float64(samples)/float64(scrapes))
		tr.count("logging.records", float64(uint64(len(w.logger.Records(0)))+w.logger.Dropped()))
		tr.count("trace.traces", float64(w.tracer.Len()))
		tr.count("flightrec.incidents", float64(w.rec.Captures()))
	}
	return d, nil
}

// arm builds the monitoring half of the stack: the rule set of
// examples/distributed-training and a flight recorder armed on it.
func (w *watch) arm(eng *chaos.Engine) {
	// Registered up front so increase() has a pre-incident baseline.
	w.bus.Histogram("orchestrator.reschedule_latency_hours", telemetry.ExpBuckets(0.25, 2, 10))
	w.ok = w.bus.Counter(telemetry.Labeled("train.steps", telemetry.String("outcome", "ok")))
	w.miss = w.bus.Counter(telemetry.Labeled("train.steps", telemetry.String("outcome", "missed")))
	w.coll = tsdb.NewCollector(tsdb.New(tsdb.Options{Retention: retentionH}), w.bus, scrapeEvery)
	w.mon = alert.NewEngine(w.coll.DB())
	w.mon.AddRule(alert.Rule{
		Name:     "PodRescheduleSlow",
		Expr:     "histogram_quantile(0.95, increase(orchestrator.reschedule_latency_hours_bucket[2h])) > 0.25",
		For:      0.5,
		Severity: "page",
	})
	w.mon.AddSLO(alert.SLO{Name: "train-steps", Objective: 0.99,
		Good: `train.steps{outcome="ok"}`, Total: "train.steps", Window: 6})
	db, mon := w.coll.DB(), w.mon
	w.rec = flightrec.New(flightrec.Config{
		Engine: mon, DB: db, Logs: w.logger, Tracer: w.tracer, Chaos: eng,
		Dashboard: func(at float64) string { return report.Dashboard(db, mon, at) },
	})
	w.rec.Arm()
}

// read is the operator's read phase at the end of the semester: the
// dashboard, then range queries at instants spread over the retained
// window.
func (s *site) read(tr *tracer, w *watch, now float64) error {
	db := w.coll.DB()
	sp := tr.begin("report.Dashboard")
	_ = report.Dashboard(db, w.mon, now)
	tr.end(sp)
	step := math.Min(retentionH, s.hours) / queryInstants
	for k := 0; k < queryInstants; k++ {
		for _, q := range readQueries {
			sp := tr.begin("tsdb.Query")
			_, err := db.Query(q, now-float64(k)*step)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("query %q: %w", q, err)
			}
		}
	}
	if errs := w.mon.Errors(); len(errs) > 0 {
		return fmt.Errorf("alert rules reported errors: %v", errs)
	}
	return nil
}

func (s *site) check(d *digest) error {
	if !s.watched || s.hours != fullSize.siteHours {
		return nil // a short horizon need not see a page
	}
	fired := false
	for _, n := range d.names {
		if strings.HasPrefix(n, "watch.t") && strings.HasSuffix(n, ".PodRescheduleSlow.pending-firing.at") {
			fired = true
		}
	}
	if !fired {
		return fmt.Errorf("PodRescheduleSlow never fired")
	}
	if n, _ := d.get("watch.incidents"); n < 1 {
		return fmt.Errorf("the flight recorder captured no incident")
	}
	return nil
}

// sibling is the same semester with watching flipped: the platform
// outcome must not change. It gives what watching costs, observed over
// bare op time, minus 1.
func (s *site) sibling() *sibling {
	other := *s
	other.watched = !s.watched
	return &sibling{runner: &other, agree: "platform.", relate: func(opMs, otherMs float64) (string, float64) {
		if s.watched {
			return "obs.overhead_frac", opMs/otherMs - 1
		}
		return "obs.overhead_frac", otherMs/opMs - 1
	}}
}

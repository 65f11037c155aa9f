// Distributed training: the Unit-4/Unit-5 labs as a program.
//
//  1. Memory-plan fine-tuning a 13B LLM on one A100-80GB: full fp32 and
//     bf16 fail; LoRA and QLoRA fit (Unit 4, single-GPU part).
//  2. Estimate multi-GPU scaling with DDP and FSDP over NVLink, built on
//     the ring all-reduce cost model (Unit 4, multi-GPU part).
//  3. Run a REAL ring all-reduce across worker goroutines and verify it
//     against the naive baseline (the lecture's HPC core).
//  4. Launch a hyperparameter search with fault-tolerant workers and
//     median stopping, logging everything to the tracking server and
//     registering the best model (Unit 5).
//  5. Inject a node failure mid-training with the chaos engine: the
//     orchestrator evacuates the dead node's pod, the collective
//     reforms its ring around the dead rank, and the run ends with a
//     resilience scorecard.
//  6. Trace the whole failure story: the training step records a span
//     tree (job → collective → per-rank phases, including the ring
//     reformation), the orchestrator records the evacuation, and the
//     run prints the critical path plus a Chrome trace-event export.
//  7. Monitor the incident end to end: a collector scrapes the telemetry
//     bus into the metrics TSDB every 0.25 simulated hours, a latency
//     alert on the p95 pod-reschedule time trips when the chaos fault
//     forces an evacuation (and resolves once the window drains), and a
//     training-step SLO scorecard shows the error budget the outage
//     burned — all at byte-identical timestamps for the fixed seed.
//  8. Record the incident: a structured logger on the sim clock collects
//     every state transition the counters summarize, and the flight
//     recorder — armed on the alert engine — captures a deterministic
//     incident bundle the instant PodRescheduleSlow fires (rule, label
//     set, dashboard snapshot, TSDB window, logs, top-cost traces, and
//     the chaos faults in force). `-incident <file>` exports the bundle;
//     the scenario test pins two exports to one golden, byte for byte.
//
// Run with: go run ./examples/distributed-training [-incident bundle.txt]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/alert"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/collective"
	"repro/internal/flightrec"
	"repro/internal/jobs"
	"repro/internal/logging"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracking"
	"repro/internal/train"
	"repro/internal/tsdb"
)

func main() {
	log.SetFlags(0)
	incidentPath := flag.String("incident", "", "export the first captured incident bundle to this file")
	flag.Parse()
	model := train.Llama13B()

	// --- 1. Single-GPU memory planning ----------------------------------
	fmt.Println("== Unit 4: fitting a 13B model on one A100-80GB ==")
	configs := []struct {
		name string
		cfg  train.Config
	}{
		{"full fp32", train.Config{Precision: train.FP32, Optimizer: train.AdamW, MicroBatch: 1, SeqLen: 2048}},
		{"full bf16", train.Config{Precision: train.BF16, Optimizer: train.AdamW, MicroBatch: 1, SeqLen: 2048}},
		{"bf16 + grad ckpt", train.Config{Precision: train.BF16, Optimizer: train.AdamW, MicroBatch: 1, SeqLen: 2048, GradCheckpoint: true}},
		{"LoRA r=16", train.Config{Precision: train.BF16, Optimizer: train.AdamW, MicroBatch: 1, SeqLen: 2048,
			GradCheckpoint: true, LoRA: &train.LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2}}},
		{"QLoRA r=16", train.Config{Precision: train.BF16, Optimizer: train.AdamW, MicroBatch: 1, SeqLen: 2048,
			GradCheckpoint: true, LoRA: &train.LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2, QuantizeBase: true}}},
	}
	for _, c := range configs {
		plan := train.PlanMemory(model, c.cfg)
		verdict := "FITS"
		if !plan.Fits(train.A100_80.MemGB) {
			verdict = "OOM "
		}
		fmt.Printf("  %-18s %6.1f GB  %s\n", c.name, plan.TotalGB, verdict)
	}

	// --- 2. Multi-GPU scaling -------------------------------------------
	fmt.Println("\n== Unit 4: DDP vs FSDP scaling on 4x A100 (NVLink) ==")
	net := collective.NVLinkCostModel()
	loraCfg := configs[3].cfg
	for _, strat := range []train.Strategy{train.DDP, train.FSDP} {
		curve, err := train.ScalingCurve(model, loraCfg, train.A100_80, strat, net, 4)
		check(err)
		fmt.Printf("  %-5s tokens/s by GPUs:", strat)
		for _, tps := range curve {
			fmt.Printf(" %7.0f", tps)
		}
		fmt.Printf("   (4-GPU efficiency %.0f%%)\n", 100*curve[3]/(4*curve[0]))
	}

	// --- 3. Real ring all-reduce ----------------------------------------
	fmt.Println("\n== Unit 4: ring all-reduce across 4 worker goroutines ==")
	rng := stats.NewRNG(11)
	const elems = 1 << 16
	grads := make([][]float64, 4)
	wantSum := make([]float64, elems)
	for w := range grads {
		grads[w] = make([]float64, elems)
		for i := range grads[w] {
			grads[w][i] = rng.Uniform(-1, 1)
			wantSum[i] += grads[w][i]
		}
	}
	check(collective.RingAllReduce(grads))
	var maxErr float64
	for w := range grads {
		for i := range grads[w] {
			if d := math.Abs(grads[w][i] - wantSum[i]); d > maxErr {
				maxErr = d
			}
		}
	}
	fmt.Printf("  %d elements x 4 workers reduced; max |error| vs sequential sum = %.2e\n", elems, maxErr)
	cm := collective.DefaultCostModel()
	bytes := 26e9 * 1.0 // 13B bf16 gradients
	fmt.Printf("  predicted 8-worker all-reduce of 26 GB over 100 Gb/s: ring %.2fs, tree %.2fs, central %.2fs\n",
		cm.Ring(8, bytes), cm.Tree(8, bytes), cm.Central(8, bytes))

	// --- 4. Hyperparameter search on the job runner ----------------------
	fmt.Println("\n== Unit 5: Ray-style tuning with median stopping + tracking ==")
	store := tracking.NewStore()
	exp := store.CreateExperiment("llama13b-lora-tune")
	pool := jobs.NewPool(4, 2) // fault-tolerant: 2 retries per task
	defer pool.Close()

	space := jobs.SampleSpec{
		"lr":   func(r *stats.RNG) float64 { return math.Pow(10, r.Uniform(-5, -3)) },
		"rank": func(r *stats.RNG) float64 { return float64(8 * (1 + r.Intn(4))) },
	}
	configsList := space.Sample(12, stats.NewRNG(3))

	objective := func(cfg map[string]float64, report func(int, float64) bool) (float64, error) {
		run, err := store.StartRun(exp.ID, fmt.Sprintf("lr=%.1e,r=%.0f", cfg["lr"], cfg["rank"]))
		if err != nil {
			return 0, err
		}
		defer store.EndRun(run.ID, tracking.StatusFinished)
		// Synthetic validation curve peaking at lr=1e-4, rank 32.
		quality := 0.9 - 0.5*math.Abs(math.Log10(cfg["lr"])+4) - 0.002*math.Abs(cfg["rank"]-32)
		best := 0.0
		for step := 0; step < 8; step++ {
			acc := quality * (1 - math.Exp(-float64(step+1)/3))
			_ = store.LogMetric(run.ID, "val_acc", step, acc)
			if acc > best {
				best = acc
			}
			if !report(step, acc) {
				return best, nil // pruned by the scheduler
			}
		}
		_ = store.LogArtifact(run.ID, "adapter.bin", []byte("lora-weights"))
		return best, nil
	}

	tuner := &jobs.Tuner{Pool: pool, Maximize: true, MedianStopping: true,
		GracePeriod: 2, MinTrialsForMedian: 4}
	results, best, err := tuner.Run(configsList, objective)
	check(err)
	pruned := 0
	for _, r := range results {
		if r.Pruned {
			pruned++
		}
	}
	fmt.Printf("  %d trials, %d pruned early; best val_acc=%.4f at lr=%.2e rank=%.0f\n",
		len(results), pruned, results[best].Score, results[best].Config["lr"], results[best].Config["rank"])

	bestRun, err := store.BestRun(exp.ID, "val_acc", true)
	check(err)
	if _, ok := bestRun.Artifacts["adapter.bin"]; ok {
		v, err := store.CreateModelVersion("llama13b-lora", bestRun.ID, "adapter.bin")
		check(err)
		_, err = store.TransitionStage("llama13b-lora", v.Version, tracking.StageStaging)
		check(err)
		fmt.Printf("  registered llama13b-lora v%d from run %s -> Staging\n", v.Version, bestRun.Name)
	} else {
		fmt.Printf("  best tracked run %s was pruned before saving an adapter; kept unregistered\n", bestRun.Name)
	}
	executed, retried := pool.Stats()
	fmt.Printf("  pool executed %d tasks (%d retries)\n", executed, retried)

	// --- 5. Chaos: a node dies mid-training -----------------------------
	fmt.Println("\n== Chaos: node failure mid-training, with recovery ==")
	clk := simclock.New()
	bus := telemetry.New()
	cl := cloud.New("site", clk)
	cl.SetTelemetry(bus)
	cl.AddVMCapacity(3, 8, 16)
	cl.CreateProject("mlops", cloud.CourseQuota())
	// Seeded tracer: every run of this example produces byte-identical
	// span trees and Chrome exports.
	tracer := trace.New(7, clk.Now)
	// Structured logger on the same sim clock: the third pillar. Only the
	// clock-driven subsystems log (cloud, orchestrator, chaos) — the
	// tuning pool above runs real goroutines whose interleaving is not
	// seeded, and deterministic log order is the contract here.
	logger := logging.New(7, clk.Now)
	logger.SetTelemetry(bus)
	cl.SetLogging(logger)
	orch := orchestrator.NewCluster()
	orch.SetClock(clk)
	orch.SetTelemetry(bus)
	orch.SetTracer(tracer)
	orch.SetLogging(logger)
	var workers []*cloud.Instance
	for i := 0; i < 3; i++ {
		inst, err := cl.Launch(cloud.LaunchSpec{Project: "mlops",
			Name: fmt.Sprintf("worker-%d", i), Flavor: cloud.M1XLarge})
		check(err)
		orch.AddNode(inst.Name, 4000, 8192)
		workers = append(workers, inst)
	}
	orch.Apply(orchestrator.Deployment{Name: "trainer", Replicas: 2,
		Spec: orchestrator.PodSpec{Image: "train:v1", CPUMilli: 2000, MemMB: 2048}})
	orch.ReconcileToFixedPoint()

	// Crash the host under the first trainer pod at t=2.5h (repaired two
	// hours later) and kill collective rank 2 at the same instant.
	victimNode := orch.Pods("trainer")[0].Node
	var victimHost string
	for _, inst := range workers {
		if inst.Name == victimNode {
			victimHost = inst.Host
		}
	}
	eng := chaos.New(clk, bus)
	eng.SetHostFailer(cl)
	eng.SetLogging(logger)
	eng.Arm(chaos.Plan{Seed: 7, Faults: []chaos.Fault{
		{At: 2.5, Kind: chaos.KindHostCrash, Target: victimHost, Duration: 2},
		{At: 2.5, Kind: chaos.KindRankFail, Target: "2", Duration: 2},
	}})
	// Control loop: every virtual hour the orchestrator syncs node health
	// from the cloud and evacuates pods off dead nodes.
	clk.Every(1, 1, "control-loop", func() { orch.SyncFromCloud(cl) },
		func() bool { return clk.Now() >= 6 })
	// Monitoring: scrape the bus into the TSDB every 0.25 virtual hours
	// and evaluate alert + SLO rules on every scrape. The latency alert
	// keys on the orchestrator's reschedule histogram: the crash at
	// t=2.5h forces an evacuation at the t=3.0h control-loop tick
	// (MTTR 0.5h), the p95 crosses the 0.25h objective, the alert holds
	// pending for 0.5h, fires, and resolves once the 2h window drains.
	// Pre-register the reschedule histogram (same bounds the orchestrator
	// uses) so its bucket series exist from the first scrape: increase()
	// needs a pre-incident baseline sample or it drops the series.
	bus.Histogram("orchestrator.reschedule_latency_hours", telemetry.ExpBuckets(0.25, 2, 10))
	coll := tsdb.NewCollector(tsdb.New(tsdb.Options{}), bus, 0.25)
	mon := alert.NewEngine(coll.DB())
	mon.AddRule(alert.Rule{
		Name:     "PodRescheduleSlow",
		Expr:     "histogram_quantile(0.95, increase(orchestrator.reschedule_latency_hours_bucket[2h])) > 0.25",
		For:      0.5,
		Severity: "page",
	})
	mon.AddSLO(alert.SLO{Name: "train-steps", Objective: 0.99,
		Good: `train.steps{outcome="ok"}`, Total: "train.steps", Window: 6})
	mon.OnTransition(func(tr alert.Transition) {
		fmt.Printf("  t=%.2fh: alert %s %s -> %s\n", tr.At, tr.Rule, tr.From, tr.To)
	})
	// Flight recorder: armed on the same engine, it captures the incident
	// bundle the instant PodRescheduleSlow goes pending->firing.
	rec := flightrec.New(flightrec.Config{
		Engine: mon,
		DB:     coll.DB(),
		Logs:   logger,
		Tracer: tracer,
		Chaos:  eng,
		Dashboard: func(at float64) string {
			return report.Dashboard(coll.DB(), mon, at)
		},
	})
	rec.Arm()
	coll.OnScrape(mon.Step)
	// Heartbeat: one training step per trainer pod per tick, marked
	// missed while the pod sits on a dead node — the SLO's raw material.
	clk.Every(0.25, 0.25, "train-heartbeat", func() {
		for _, p := range orch.Pods("trainer") {
			outcome := "ok"
			if p.Node == "" || !mustGet(cl, p.Node).Running() {
				outcome = "missed"
			}
			bus.Counter(telemetry.Labeled("train.steps",
				telemetry.String("outcome", outcome))).Inc()
		}
	}, func() bool { return clk.Now() >= 6 })
	coll.Start(clk, func() bool { return clk.Now() >= 6 })
	// The training step that was in flight when the rank died: the ring
	// reforms around the survivors instead of hanging.
	clk.At(2.5, "all-reduce-step", func() {
		step := make([][]float64, 4)
		for w := range step {
			step[w] = make([]float64, 8)
			for i := range step[w] {
				step[w][i] = float64(w + 1)
			}
		}
		job := tracer.StartTrace("train.step",
			telemetry.Int("ranks", len(step)),
			telemetry.String("job", "trainer"))
		rep, err := collective.RingAllReduceTraced(step, eng.RankDead, collective.TraceSpec{
			Parent: job, Model: &cm, Bytes: bytes, DetectTimeout: 30})
		check(err)
		// Close the step where its slowest child ends (the collective
		// places phases on the virtual axis from the cost model).
		if td, ok := tracer.TraceByID(job.TraceID()); ok {
			job.FinishAt(td.End())
		}
		fmt.Printf("  t=%.1fh: rank(s) %v dead mid-step; ring reformed over %d survivors\n",
			clk.Now(), rep.Dead, rep.Survivors)
		fmt.Printf("  predicted 8-worker 26 GB all-reduce: healthy %.2fs, one dead rank + 30s detect %.2fs\n",
			cm.Ring(8, bytes), cm.RingWithReformation(8, 1, bytes, 30))
	})
	clk.RunUntil(6)

	rs := orch.Resilience()
	fmt.Printf("  host %s crashed at t=2.5h; %d pod(s) rescheduled, mean MTTR %.1fh\n",
		victimHost, rs.Reschedules, rs.MeanMTTRHrs)
	fmt.Printf("  dead worker metered %.1fh (billing stopped at the crash), survivors %.1fh each\n",
		mustGet(cl, victimNode).HoursAt(clk.Now()), 6.0)
	fmt.Print(report.ResilienceSummary(bus))

	// --- 6. Tracing the failure story ------------------------------------
	fmt.Println("\n== Tracing: the training step and the evacuation as spans ==")
	td, ok := tracer.Find("train.step")
	if !ok {
		log.Fatal("the traced training step never ran")
	}
	fmt.Print(trace.Tree(td))
	fmt.Println()
	fmt.Print(trace.RenderCriticalPath(td))
	if ev, ok := tracer.Find("evacuate"); ok {
		fmt.Println()
		fmt.Print(trace.Tree(ev))
	}
	export := trace.Chrome(tracer.Traces())
	fmt.Printf("\n  chrome export: %d traces, %d bytes, valid JSON = %v\n",
		tracer.Len(), len(export), json.Valid(export))
	fmt.Println("  (pipe to a file and open in https://ui.perfetto.dev to see the timeline)")

	// --- 7. Monitoring: the incident as alerts and error budget ----------
	fmt.Println("\n== Monitoring: the incident as alerts and error budget ==")
	v, err := coll.DB().Query(
		"histogram_quantile(0.95, orchestrator.reschedule_latency_hours_bucket)", clk.Now())
	check(err)
	fmt.Printf("  p95 pod-reschedule latency (hours):\n")
	for _, line := range strings.Split(strings.TrimRight(tsdb.FormatValue(v), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
	fmt.Println()
	fmt.Print(report.SLOSummary(mon.Statuses(clk.Now())))
	fmt.Println()
	fmt.Print(report.Alerts(mon.Active(), mon.Timeline()))
	if errs := mon.Errors(); len(errs) > 0 {
		log.Fatalf("alert rules reported errors: %v", errs)
	}

	// --- 8. The flight recorder's incident bundle ------------------------
	fmt.Println("\n== Flight recorder: the incident as evidence ==")
	incidents := rec.Incidents()
	fmt.Print(report.IncidentList(incidents))
	if len(incidents) == 0 {
		log.Fatal("FAIL: the reschedule alert fired but no incident was captured")
	}
	fmt.Printf("  bundle #%d: %d series, %d log lines, %d trace(s), %d active fault(s) in window [%.2fh, %.2fh]\n",
		incidents[0].ID, len(incidents[0].Series), len(incidents[0].Logs),
		len(incidents[0].Traces), len(incidents[0].Faults),
		incidents[0].WindowFrom, incidents[0].WindowTo)
	recs := incidents[0].Logs
	if len(recs) > 5 {
		recs = recs[len(recs)-5:]
	}
	fmt.Printf("  last %d log lines before the page:\n", len(recs))
	for _, line := range strings.Split(strings.TrimRight(logging.Render(recs), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
	if *incidentPath != "" {
		bundle := report.Incident(incidents[0])
		check(os.WriteFile(*incidentPath, []byte(bundle), 0o644))
		fmt.Printf("  exported incident #%d (%d bytes) to %s\n",
			incidents[0].ID, len(bundle), *incidentPath)
	}
}

// mustGet returns the named instance; the example's instances exist by
// construction.
func mustGet(cl *cloud.Cloud, name string) *cloud.Instance {
	for _, inst := range cl.List(nil) {
		if inst.Name == name {
			return inst
		}
	}
	log.Fatalf("no instance named %s", name)
	return nil
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

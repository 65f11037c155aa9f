// Spot training: checkpoint-and-migrate survival on a preemptible
// market, priced to the cent.
//
//  1. Model the checkpoint: a full 13B fine-tune checkpoints 182 GB of
//     weights + optimizer state; a QLoRA run checkpoints only the
//     adapters. orchestrator.PlanCheckpoints turns write time and the
//     pool's MTBF into a Young-formula checkpoint interval.
//  2. Build a spot market over two bare-metal pools with seeded
//     mean-reverting price series, each well below the on-demand rate.
//  3. Arm a seeded chaos plan of KindPreempt faults: the provider
//     reclaims slots with a 2-sim-minute advance notice; recoveries
//     return them.
//  4. Submit two training jobs to the TrainController. On each notice
//     it drains the in-flight steps, writes a final checkpoint when the
//     window allows (the LoRA job always can; the full job's 182 GB
//     write cannot), vacates before the deadline, and relaunches on the
//     cheapest surviving pool or on-demand.
//  5. Monitor the run: a collector scrapes the bus into the TSDB, and a
//     kept-steps SLO shows the error budget the preemptions burned.
//  6. Print the spot scorecard — savings vs on-demand, preemptions
//     survived, lost step-hours, MTTR — reconciling to the cent, then
//     self-check every survival invariant. Output is byte-identical
//     across runs for the fixed seed (the scenario test pins two runs).
//
// Every subsystem also logs through the seeded structured logger, and
// `-recorder` arms the incident flight recorder on the alert engine.
// The kept-steps SLO stays inside budget here, so the recorder never
// captures — and an armed-but-quiet recorder is bit-identical to no
// recorder at all (the scenario test pins both stdouts to one golden).
//
// Run with: go run ./examples/spot-training [-recorder]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/alert"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/collective"
	"repro/internal/cost"
	"repro/internal/flightrec"
	"repro/internal/logging"
	"repro/internal/objectstore"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
	"repro/internal/tsdb"
)

const (
	seed       = 42
	horizon    = 12.0     // sim hours
	noticeHrs  = 2.0 / 60 // two sim-minutes of advance warning
	diskBps    = 1e9      // checkpoint write bandwidth, bytes/s
	poolMTBFHr = 1.5      // per-pool preemption MTBF driving the chaos plan
)

func main() {
	log.SetFlags(0)
	useRecorder := flag.Bool("recorder", false, "arm the incident flight recorder (quiet here: it must not change the output)")
	flag.Parse()
	model := train.Llama13B()

	// --- 1. Checkpoint model --------------------------------------------
	fmt.Println("== Checkpoint model: what a preemption can destroy ==")
	fullCfg := train.Config{Precision: train.BF16, Optimizer: train.AdamW,
		MicroBatch: 1, SeqLen: 2048, GradCheckpoint: true, ZeROStage: 3, DataParallel: 4}
	loraCfg := train.Config{Precision: train.BF16, Optimizer: train.AdamW,
		MicroBatch: 1, SeqLen: 2048, GradCheckpoint: true,
		LoRA: &train.LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2, QuantizeBase: true}}
	fullBytes := train.CheckpointBytes(model, fullCfg)
	loraBytes := train.CheckpointBytes(model, loraCfg)
	fullPolicy := orchestrator.PlanCheckpoints(fullBytes, diskBps, 2*poolMTBFHr)
	loraPolicy := orchestrator.PlanCheckpoints(loraBytes, diskBps, 2*poolMTBFHr)
	fmt.Printf("  full fine-tune: %6.1f GB state, write %5.1fs, Young interval %.3fh\n",
		fullBytes/1e9, fullPolicy.WriteHours*3600, fullPolicy.IntervalHours)
	fmt.Printf("  QLoRA adapters: %6.3f GB state, write %5.1fs, Young interval %.3fh\n",
		loraBytes/1e9, loraPolicy.WriteHours*3600, loraPolicy.IntervalHours)
	fmt.Printf("  notice window:  %5.1fs — fits the QLoRA write, not the full one\n",
		noticeHrs*3600)

	// Step times off the throughput model: the full job shards FSDP over
	// the 4-GPU A100 flavor; QLoRA runs on one A100. The controller's
	// unit of progress is a macro-step — a few hundred optimizer steps —
	// so checkpoint boundaries land at realistic multi-minute spacing.
	net := collective.NVLinkCostModel()
	fullEst, err := train.EstimateStep(model, fullCfg, train.A100_80, 4, train.FSDP, net)
	check(err)
	loraEst, err := train.EstimateStep(model, loraCfg, train.A100_80, 1, train.DDP, net)
	check(err)
	fullStep := 300 * fullEst.StepSeconds / 3600 // ~0.15h per macro-step
	loraStep := 150 * loraEst.StepSeconds / 3600 // ~0.07h per macro-step

	// --- 2. The site and its spot market --------------------------------
	clk := simclock.New()
	bus := telemetry.New()
	cl := cloud.New("spot-site", clk)
	cl.SetTelemetry(bus)
	tracer := trace.New(seed, clk.Now)
	logger := logging.New(seed, clk.Now)
	logger.SetTelemetry(bus)
	cl.SetLogging(logger)
	cl.AddBareMetal(3, cloud.GPUA100PCIe)
	cl.AddBareMetal(4, cloud.ComputeLiqid)
	cl.CreateProject("mlops", cloud.Quota{Instances: 100, Cores: 10000, RAMGB: 100000})

	m := cl.EnableSpot(noticeHrs)
	a100Series := cost.GenerateSpotPrices(seed+1, cost.SpotSpec{
		OnDemandPerHour: 3.307, Volatility: 0.25, Horizon: horizon})
	liqidSeries := cost.GenerateSpotPrices(seed+2, cost.SpotSpec{
		OnDemandPerHour: 1.212, Volatility: 0.25, Horizon: horizon})
	// Single-slot pools: any preemption of an occupied pool immediately
	// over-subscribes it and a notice goes out.
	m.AddPool(cloud.GPUA100PCIe, 1, a100Series)
	m.AddPool(cloud.ComputeLiqid, 1, liqidSeries)
	fmt.Println("\n== Spot market ==")
	for _, p := range m.Pools() {
		fmt.Printf("  pool %-14s %d slots  spot $%.2f/h  (on-demand $%.2f/h)\n",
			p.Pool, p.Capacity, p.SpotPerHour, p.OnDemandPerHour)
	}

	// --- 3. Seeded preemption storm --------------------------------------
	plan := chaos.Generate(seed, chaos.GenSpec{
		Horizon:         horizon,
		PreemptMTBF:     poolMTBFHr,
		MeanRepairHours: 1.0,
		SpotPools:       []string{"compute_liqid", "gpu_a100_pcie"},
	})
	eng := chaos.New(clk, bus)
	eng.SetPreempter(m)
	eng.SetLogging(logger)
	armed := eng.Arm(plan)
	fmt.Printf("\n== Chaos plan: %d preemption fault(s) over %.0fh ==\n", armed, horizon)

	// --- 4. The jobs ------------------------------------------------------
	store := objectstore.New(clk, cl)
	_, err = store.CreateBucket("mlops", "checkpoints")
	check(err)
	tc := orchestrator.NewTrainController(clk, cl)
	tc.SetObjectStore(store)
	tc.SetTelemetry(bus)
	tc.SetTracer(tracer)
	tc.SetLogging(logger)
	targets := []orchestrator.TrainTarget{
		{Flavor: cloud.ComputeLiqid, StepHours: 2.5 * loraStep},
		{Flavor: cloud.GPUA100PCIe, StepHours: fullStep},
	}
	check(tc.Submit(orchestrator.TrainJobSpec{
		Name: "llama13b-full", Project: "mlops",
		Targets: []orchestrator.TrainTarget{
			{Flavor: cloud.GPUA100PCIe, StepHours: fullStep},
			{Flavor: cloud.ComputeLiqid, StepHours: 3 * fullStep},
		},
		TotalSteps: 40, Checkpoint: fullPolicy, Bucket: "checkpoints",
	}))
	check(tc.Submit(orchestrator.TrainJobSpec{
		Name: "llama13b-qlora", Project: "mlops",
		Targets:    targets,
		TotalSteps: 40, Checkpoint: loraPolicy, Bucket: "checkpoints",
	}))

	// --- 5. Monitoring ----------------------------------------------------
	coll := tsdb.NewCollector(tsdb.New(tsdb.Options{}), bus, 0.25)
	mon := alert.NewEngine(coll.DB())
	mon.AddSLO(alert.SLO{Name: "kept-steps", Objective: 0.90,
		Good:  `orchestrator.train_steps{outcome="kept"}`,
		Total: "orchestrator.train_steps", Window: horizon})
	var rec *flightrec.Recorder
	if *useRecorder {
		rec = flightrec.New(flightrec.Config{
			Engine: mon,
			DB:     coll.DB(),
			Logs:   logger,
			Tracer: tracer,
			Chaos:  eng,
			Spot:   m,
			Dashboard: func(at float64) string {
				return report.Dashboard(coll.DB(), mon, at)
			},
		})
		rec.Arm()
	}
	coll.OnScrape(mon.Step)
	coll.Start(clk, func() bool { return clk.Now() >= horizon })

	clk.Run()

	// An armed recorder on a within-budget run must capture nothing;
	// anything else would make the -recorder run observable.
	if rec != nil && rec.Captures() != 0 {
		log.Fatalf("FAIL: kept-steps stayed inside budget but the recorder captured %d incident(s)", rec.Captures())
	}

	// --- 6. Scorecard and invariants --------------------------------------
	fmt.Println("\n== Jobs ==")
	for _, j := range tc.Jobs() {
		fmt.Printf("  %-15s %-6s %3d/%3d steps persisted  preempted %d  migrated %d  lost %.3f step-hours\n",
			j.Name, j.Phase, j.PersistedSteps, j.TotalSteps, j.Preemptions, j.Migrations, j.LostStepHours)
	}
	recs := cl.Meter().Records(nil)
	stats := report.GatherSpot(bus, recs, clk.Now(), m.Series)
	fmt.Println()
	fmt.Print(report.Spot(stats))
	fmt.Println()
	fmt.Print(report.SLOSummary(mon.Statuses(clk.Now())))

	if td, ok := tracer.Find("train llama13b-full"); ok {
		fmt.Println("\n== Trace: the full fine-tune's survival story ==")
		fmt.Print(trace.Tree(td))
	}

	// Invariant 1: every job completed — zero lost jobs.
	if !tc.AllDone() {
		log.Fatalf("FAIL: not all jobs completed: %+v", tc.Jobs())
	}
	// Invariant 2: the controller always vacated inside the notice
	// window; the market never had to kill a running instance.
	if stats.Reclaims != 0 || stats.Vacated != stats.Preemptions {
		log.Fatalf("FAIL: %d notices, %d vacated, %d reclaimed running — migration machinery leaked",
			stats.Preemptions, stats.Vacated, stats.Reclaims)
	}
	// Invariant 3: lost work is bounded by one checkpoint interval plus
	// one step per migration.
	for _, j := range tc.Jobs() {
		var pol orchestrator.CheckpointPolicy
		var step float64
		if j.Name == "llama13b-full" {
			pol, step = fullPolicy, fullStep
		} else {
			pol, step = loraPolicy, 2.5*loraStep
		}
		bound := float64(j.Migrations) * (pol.IntervalHours + pol.WriteHours + step)
		if j.LostStepHours > bound+1e-9 {
			log.Fatalf("FAIL: %s lost %.4f step-hours > bound %.4f", j.Name, j.LostStepHours, bound)
		}
		if j.PersistedSteps != j.TotalSteps {
			log.Fatalf("FAIL: %s persisted %d/%d steps", j.Name, j.PersistedSteps, j.TotalSteps)
		}
	}
	// Invariant 4: the bill reconciles to the cent and spot undercuts
	// on-demand.
	var sumSpot, sumOD int64
	for _, p := range stats.Bill.Pools {
		sumSpot += p.SpotCents
		sumOD += p.OnDemandCents
	}
	if sumSpot != stats.Bill.SpotCents || sumOD != stats.Bill.OnDemandCents ||
		stats.Bill.SavingsCents != stats.Bill.OnDemandCents-stats.Bill.SpotCents {
		log.Fatalf("FAIL: bill does not reconcile: pools %d/%d vs totals %d/%d",
			sumSpot, sumOD, stats.Bill.SpotCents, stats.Bill.OnDemandCents)
	}
	if stats.Bill.SavingsCents <= 0 {
		log.Fatalf("FAIL: spot bill %s not below on-demand %s",
			cost.FormatCents(stats.Bill.SpotCents), cost.FormatCents(stats.Bill.OnDemandCents))
	}
	// Invariant 5: checkpoints really landed in the object store.
	keys, err := store.List("checkpoints", "")
	check(err)
	if len(keys) == 0 {
		log.Fatal("FAIL: no checkpoint objects written")
	}
	if math.IsNaN(stats.MeanMTTRHrs) {
		log.Fatal("FAIL: MTTR is NaN")
	}
	fmt.Printf("\nOK: %d jobs done, %d preemptions survived, %d checkpoint objects, saved %s vs on-demand\n",
		stats.JobsDone, stats.Preemptions, len(keys), cost.FormatCents(stats.Bill.SavingsCents))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cicd"
	"repro/internal/cloud"
	"repro/internal/collective"
	"repro/internal/datapipe"
	"repro/internal/iac"
	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/objectstore"
	"repro/internal/orchestrator"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/tracking"
	"repro/internal/train"
)

// TestIntegrationGourmetGramLifecycle runs the course's running example
// across every substrate: IaC provisioning on the IaaS simulator,
// configuration, orchestration, experiment tracking over real HTTP,
// model registry promotion, canary-gated rollout, serving with dynamic
// batching, monitoring with drift detection, and an automated retraining
// workflow — asserting invariants at each stage.
func TestIntegrationGourmetGramLifecycle(t *testing.T) {
	// --- Provision.
	clk := simclock.New()
	site := cloud.New("kvm@it", clk)
	site.AddVMCapacity(4, 48, 192)
	site.CreateProject("gg", cloud.DefaultProjectQuota())

	module := iac.NewModule()
	module.MustAdd(iac.Resource{Type: "network", Name: "net", Attrs: map[string]string{"name": "gg"}})
	module.MustAdd(iac.Resource{Type: "subnet", Name: "net", DependsOn: []string{"network.net"},
		Attrs: map[string]string{"network": "network.net", "name": "gg", "cidr": "10.1.0.0/24"}})
	for i := 0; i < 3; i++ {
		module.MustAdd(iac.Resource{Type: "instance", Name: fmt.Sprintf("n%d", i),
			DependsOn: []string{"subnet.net"},
			Attrs:     map[string]string{"name": fmt.Sprintf("n%d", i), "flavor": "m1.medium", "network": "network.net"}})
	}
	provider := &iac.CloudProvider{Cloud: site, Project: "gg"}
	state := iac.NewState()
	plan, err := iac.PlanChanges(module, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := iac.Apply(plan, provider, state); err != nil {
		t.Fatal(err)
	}
	if got := len(site.List(func(i *cloud.Instance) bool { return i.Running() })); got != 3 {
		t.Fatalf("provisioned %d instances", got)
	}

	// --- Configure + orchestrate.
	hosts := []*iac.HostState{iac.NewHost("n0"), iac.NewHost("n1"), iac.NewHost("n2")}
	if _, err := iac.KubesprayPlaybook().Run(hosts); err != nil {
		t.Fatal(err)
	}
	cluster := orchestrator.NewCluster()
	for _, h := range hosts {
		if !h.Services["kubelet"] {
			t.Fatalf("host %s not converged", h.Name)
		}
		cluster.AddNode(h.Name, 2000, 4096)
	}

	// --- Track an experiment over real HTTP.
	store := tracking.NewStore()
	srv := httptest.NewServer(tracking.NewServer(store))
	defer srv.Close()
	post := func(path string, body any) map[string]any {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s -> %d", path, resp.StatusCode)
		}
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	exp := post("/api/experiments", map[string]string{"name": "food11"})
	run := post("/api/runs", map[string]string{"experiment_id": exp["id"].(string), "name": "baseline"})
	runID := run["id"].(string)
	for step := 0; step < 10; step++ {
		post("/api/runs/"+runID+"/metrics", map[string]any{"key": "loss", "step": step, "value": 2.0 / float64(step+1)})
	}
	if err := store.LogArtifact(runID, "model.onnx", []byte("weights-v1")); err != nil {
		t.Fatal(err)
	}
	post("/api/runs/"+runID+"/end", map[string]string{"status": "FINISHED"})
	v := post("/api/models/clf/versions", map[string]string{"run_id": runID, "artifact_path": "model.onnx"})
	post("/api/models/clf/versions/1/stage", map[string]string{"stage": "Staging"})
	if v["version"].(float64) != 1 {
		t.Fatalf("version = %v", v["version"])
	}

	// --- Canary-gated rollout, wired to the monitoring substrate.
	pipeline := &cicd.ReleasePipeline{Cluster: cluster, Service: "gg",
		Spec: orchestrator.PodSpec{CPUMilli: 300, MemMB: 256}, ProdReplicas: 4}
	if err := pipeline.DeployStaging("clf:v1"); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.PromoteToCanary(0.5); err != nil {
		t.Fatal(err)
	}
	canary := monitor.NewCanaryComparison()
	for i := 0; i < 200; i++ {
		mustNil(t, canary.Record("stable", false))
		mustNil(t, canary.Record("canary", i%100 == 0))
	}
	if err := pipeline.PromoteToProduction(func(string) error { return canary.Verdict() }); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Pods("gg")); got != 4 {
		t.Fatalf("prod pods = %d", got)
	}
	if _, err := store.TransitionStage("clf", 1, tracking.StageProduction); err != nil {
		t.Fatal(err)
	}

	// --- Serve with a real batcher; detect drift.
	batcher := serve.NewBatcher(8, time.Millisecond, 2, func(in [][]float64) ([][]float64, error) {
		out := make([][]float64, len(in))
		for i := range in {
			out[i] = in[i]
		}
		return out, nil
	})
	defer batcher.Close()
	rng := stats.NewRNG(17)
	ref := make([]float64, 500)
	for i := range ref {
		ref[i] = rng.Normal()
	}
	drift := monitor.NewDriftDetector(ref)
	shifted := make([]float64, 500)
	for i := range shifted {
		if _, err := batcher.Submit([]float64{1}); err != nil {
			t.Fatal(err)
		}
		shifted[i] = rng.Normal() + 1.5
	}
	rep := drift.Check(shifted)
	if !rep.Drifted {
		t.Fatal("drift not detected")
	}
	if _, _, mean := batcher.Stats(); mean < 1 {
		t.Fatal("batcher stats empty")
	}

	// --- Automated retraining workflow triggered by the drift signal.
	wf := cicd.Workflow{Name: "retrain", Steps: []cicd.Step{
		{Name: "train", Run: func(c *cicd.Context) error {
			r2, err := store.StartRun(exp["id"].(string), "retrain")
			if err != nil {
				return err
			}
			if err := store.LogArtifact(r2.ID, "model.onnx", []byte("weights-v2")); err != nil {
				return err
			}
			if err := store.EndRun(r2.ID, tracking.StatusFinished); err != nil {
				return err
			}
			c.Set("run", r2.ID)
			return nil
		}},
		{Name: "register", DependsOn: []string{"train"}, Run: func(c *cicd.Context) error {
			id, _ := c.Get("run")
			_, err := store.CreateModelVersion("clf", id, "model.onnx")
			return err
		}},
	}}
	if _, err := wf.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.TransitionStage("clf", 2, tracking.StageProduction); err != nil {
		t.Fatal(err)
	}
	prod, err := store.LatestVersion("clf", tracking.StageProduction)
	if err != nil || prod.Version != 2 {
		t.Fatalf("production version = %+v, %v", prod, err)
	}
	blob, err := store.LoadModel(prod)
	if err != nil || string(blob) != "weights-v2" {
		t.Fatalf("LoadModel: %q, %v", blob, err)
	}

	// --- Teardown via IaC destroy: nothing left running.
	if err := iac.Destroy(provider, state); err != nil {
		t.Fatal(err)
	}
	if got := len(site.List(func(i *cloud.Instance) bool { return i.Running() })); got != 0 {
		t.Fatalf("%d instances after destroy", got)
	}
}

// TestIntegrationDataToTraining exercises the Unit-8 path end to end:
// object storage for the raw dataset, a streaming broker feeding the
// feature store, point-in-time training reads, a tuning job on the pool,
// offline evaluation with slices, and block-storage persistence of the
// resulting model.
func TestIntegrationDataToTraining(t *testing.T) {
	clk := simclock.New()
	site := cloud.New("kvm@it2", clk)
	site.CreateProject("proj", cloud.DefaultProjectQuota())

	// Raw dataset in object storage.
	obj := objectstore.New(clk, site)
	if _, err := obj.CreateBucket("proj", "food11"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := obj.Put("food11", fmt.Sprintf("train/img%02d.jpg", i), []byte("pixels"), "image/jpeg"); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := obj.List("food11", "train/")
	if err != nil || len(keys) != 20 {
		t.Fatalf("dataset listing: %d keys, %v", len(keys), err)
	}

	// ETL the metadata, stream user events into the feature store.
	etl := datapipe.NewETL("prep").
		Stage("filter", datapipe.FilterFields("width")).
		Stage("norm", datapipe.Scale("width", 1.0/224))
	var batch []datapipe.Record
	for i := 0; i < 20; i++ {
		batch = append(batch, datapipe.Record{Key: fmt.Sprintf("img%02d", i),
			Fields: map[string]float64{"width": 224}})
	}
	cleaned, report, err := etl.Run(batch)
	if err != nil || report.Out != 20 {
		t.Fatalf("etl: %+v, %v", report, err)
	}
	store := datapipe.NewFeatureStore()
	store.IngestBatch(cleaned, 1.0)

	broker := datapipe.NewBroker()
	broker.CreateTopic("events")
	mustNil(t, broker.Subscribe("events", "fs", true))
	for i := 0; i < 5; i++ {
		msg, _ := json.Marshal(map[string]any{"key": "img00", "t": 2.0 + float64(i),
			"fields": map[string]float64{"views": float64(i + 1)}})
		if _, err := broker.Produce("events", "k", msg); err != nil {
			t.Fatal(err)
		}
	}
	applied, _, err := store.ConsumeStream(broker, "events", "fs", 100)
	if err != nil || applied != 5 {
		t.Fatalf("stream consume: %d, %v", applied, err)
	}
	// Point-in-time correctness: training read at t=3 must not see later
	// view counts.
	asOf, err := store.AsOf("img00", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if asOf["views"] != 2 {
		t.Fatalf("as-of views = %v, want 2", asOf["views"])
	}

	// Tune a model on the pool.
	pool := jobs.NewPool(4, 1)
	defer pool.Close()
	tuner := &jobs.Tuner{Pool: pool, Maximize: true}
	var grid []map[string]float64
	for _, lr := range []float64{0.05, 0.1, 0.2, 0.4} {
		grid = append(grid, map[string]float64{"lr": lr})
	}
	results, best, err := tuner.Run(grid, func(cfg map[string]float64, _ func(int, float64) bool) (float64, error) {
		return 1 - math.Abs(cfg["lr"]-0.2), nil
	})
	if err != nil || results[best].Config["lr"] != 0.2 {
		t.Fatalf("tuning: best=%v, %v", results[best].Config, err)
	}

	// Give the trainer a block-storage volume for the model.
	bs := blockstore.New(clk, site)
	vol, err := bs.Create("proj", "models", 2)
	if err != nil {
		t.Fatal(err)
	}
	mustNil(t, bs.Attach(vol.ID, "trainer-vm"))
	if p, _ := site.GetProject("proj"); p.Usage.Volumes != 1 || p.Usage.BlockStorageGB != 2 {
		t.Fatalf("volume quota usage = %+v", p.Usage)
	}
}

// TestIntegrationTrainingPlanToSchedule connects the Unit-4 memory
// planner to the Unit-5 cluster scheduler: plan a feasible multi-GPU
// fine-tune, derive its gang size, and schedule it among competing jobs
// with backfill.
func TestIntegrationTrainingPlanToSchedule(t *testing.T) {
	model := train.Llama13B()
	cfg := train.Config{Precision: train.BF16, Optimizer: train.AdamW, MicroBatch: 1,
		SeqLen: 2048, GradCheckpoint: true, ZeROStage: 3, DataParallel: 4}
	plan := train.PlanMemory(model, cfg)
	if !plan.Fits(train.A100_80.MemGB) {
		t.Fatalf("4-way FSDP plan should fit: %+v", plan)
	}
	est, err := train.EstimateStep(model, cfg, train.A100_80, 4, train.FSDP, collective.NVLinkCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Derive job duration for 1M tokens of fine-tuning.
	durationHours := 1e6 / est.TokensPerSec / 3600
	jobsList := []*sched.Job{
		{ID: "llama-ft", User: "grp1", GPUs: 4, Duration: durationHours, Submit: 0},
		{ID: "small-1", User: "grp2", GPUs: 1, Duration: 0.5, Submit: 0.1},
		{ID: "small-2", User: "grp3", GPUs: 1, Duration: 0.5, Submit: 0.1},
	}
	res, err := sched.Run(sched.PolicyBackfill, jobsList, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]sched.Assignment{}
	for _, a := range res.Assignments {
		m[a.Job.ID] = a
	}
	if m["llama-ft"].Start != 0 {
		t.Errorf("gang job delayed: %+v", m["llama-ft"])
	}
	if m["small-1"].Start < m["llama-ft"].End {
		t.Errorf("small job overlapped a full-cluster gang: %+v", m["small-1"])
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// GourmetGram: the course's running example end to end, with a real
// (small) model in the loop. A fictional food-photo platform's ML team:
//
//  1. provisions a three-node cluster declaratively (Terraform-style IaC
//     on the cloud simulator) and converges it with an Ansible-style
//     playbook (Unit 3),
//  2. trains a real softmax classifier with 4-worker data-parallel SGD
//     (gradients averaged by the actual ring all-reduce), logging every
//     epoch to the experiment-tracking server and registering the
//     serialized model (Units 4–5),
//  3. rolls the model out through staging → canary → production with a
//     monitoring gate (Units 3, 6, 7),
//  4. serves real predictions through the dynamic batcher while
//     monitoring latency and confidence drift (Units 6–7),
//  5. detects input drift, triggers automated retraining through the
//     workflow engine on fresh (drifted) data, and promotes the
//     retrained model once it recovers accuracy — the MLOps feedback
//     loop.
//
// Run with: go run ./examples/gourmetgram
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cicd"
	"repro/internal/cloud"
	"repro/internal/iac"
	"repro/internal/mlcore"
	"repro/internal/monitor"
	"repro/internal/orchestrator"
	"repro/internal/serve"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/tracking"
)

func main() {
	log.SetFlags(0)

	// --- 1. Infrastructure as code -------------------------------------
	clk := simclock.New()
	site := cloud.New("kvm@tacc", clk)
	site.AddVMCapacity(4, 48, 192)
	site.CreateProject("gourmetgram", cloud.DefaultProjectQuota())

	module := iac.NewModule()
	module.MustAdd(iac.Resource{Type: "network", Name: "private",
		Attrs: map[string]string{"name": "gg-net"}})
	module.MustAdd(iac.Resource{Type: "subnet", Name: "private",
		DependsOn: []string{"network.private"},
		Attrs:     map[string]string{"network": "network.private", "name": "gg-subnet", "cidr": "192.168.10.0/24"}})
	for _, n := range []string{"node1", "node2", "node3"} {
		module.MustAdd(iac.Resource{Type: "instance", Name: n,
			DependsOn: []string{"subnet.private"},
			Attrs: map[string]string{"name": n, "flavor": "m1.medium",
				"network": "network.private", "lab": "gourmetgram"}})
	}
	module.MustAdd(iac.Resource{Type: "floating_ip", Name: "ingress",
		DependsOn: []string{"instance.node1"},
		Attrs:     map[string]string{"instance": "instance.node1", "lab": "gourmetgram"}})

	provider := &iac.CloudProvider{Cloud: site, Project: "gourmetgram"}
	state := iac.NewState()
	plan, err := iac.PlanChanges(module, state)
	check(err)
	creates, _, _ := plan.Summary()
	fmt.Printf("terraform plan: %d to add\n", creates)
	check(iac.Apply(plan, provider, state))

	hosts := []*iac.HostState{iac.NewHost("node1"), iac.NewHost("node2"), iac.NewHost("node3")}
	reportpb, err := iac.KubesprayPlaybook().Run(hosts)
	check(err)
	fmt.Printf("ansible: ok=%d changed=%d failed=%d\n", reportpb.OK, reportpb.Changed, reportpb.Failed)

	cluster := orchestrator.NewCluster()
	for _, h := range hosts {
		cluster.AddNode(h.Name, 2000, 4096)
	}

	// --- 2. Real DDP training + tracking + registry ---------------------
	rng := stats.NewRNG(7)
	data := mlcore.Blobs(2400, 8, 4, 0.7, rng) // "food embedding" dataset
	trainSet, testSet := data.Split(0.8)

	store := tracking.NewStore()
	exp := store.CreateExperiment("food11")
	run, err := store.StartRun(exp.ID, "softmax-ddp4")
	check(err)
	check(store.LogParam(run.ID, "lr", "0.2"))
	check(store.LogParam(run.ID, "workers", "4"))

	model := mlcore.NewSoftmaxClassifier(trainSet.Features(), trainSet.Classes)
	hist, err := mlcore.Train(model, trainSet, mlcore.TrainConfig{
		Epochs: 10, BatchSize: 32, LR: 0.2, Workers: 4})
	check(err)
	for _, e := range hist {
		check(store.LogMetric(run.ID, "loss", e.Epoch, e.Loss))
	}
	acc := model.Accuracy(testSet)
	check(store.LogMetric(run.ID, "val_acc", len(hist), acc))
	blob, err := model.Marshal()
	check(err)
	check(store.LogArtifact(run.ID, "model.json", blob))
	check(store.EndRun(run.ID, tracking.StatusFinished))
	v1, err := store.CreateModelVersion("food-classifier", run.ID, "model.json")
	check(err)
	_, err = store.TransitionStage("food-classifier", v1.Version, tracking.StageStaging)
	check(err)
	fmt.Printf("trained with 4-worker DDP (ring all-reduce): loss %.3f -> %.3f, val_acc=%.4f; registered v%d -> Staging\n",
		hist[0].Loss, hist[len(hist)-1].Loss, acc, v1.Version)

	// --- 3. Staged rollout with a canary gate --------------------------
	pipeline := &cicd.ReleasePipeline{
		Cluster: cluster, Service: "gourmetgram",
		Spec:         orchestrator.PodSpec{CPUMilli: 400, MemMB: 512, Port: 8080},
		ProdReplicas: 4,
	}
	check(pipeline.DeployStaging("food-classifier:v1"))
	check(pipeline.PromoteToCanary(0.25))
	canary := monitor.NewCanaryComparison()
	for i := 0; i < 400; i++ {
		check(canary.Record("stable", false))
		check(canary.Record("canary", i%100 == 0)) // 1% errors: healthy
	}
	check(pipeline.PromoteToProduction(func(string) error { return canary.Verdict() }))
	_, _, stable := pipeline.Images()
	fmt.Printf("production image: %s (%d replicas)\n", stable, len(cluster.Pods("gourmetgram")))
	_, err = store.TransitionStage("food-classifier", v1.Version, tracking.StageProduction)
	check(err)

	// --- 4. Serve real predictions; monitor latency + confidence drift --
	prodVersion, err := store.LatestVersion("food-classifier", tracking.StageProduction)
	check(err)
	prodBlob, err := store.LoadModel(prodVersion)
	check(err)
	served, err := mlcore.Unmarshal(prodBlob)
	check(err)

	batcher := serveModel(served)
	defer batcher.close()

	// Reference confidence distribution from held-out data.
	refConf := confidences(served, testSet)
	drift := monitor.NewDriftDetector(refConf)

	week1, week1Lat := confidencesVia(batcher, testSet)
	r1 := drift.Check(week1)
	fmt.Printf("week 1: drift=%v (KS p=%.3f), accuracy=%.4f\n", r1.Drifted, r1.KSPValue, served.Accuracy(testSet))
	lat := stats.Summarize(week1Lat)
	fmt.Printf("serving p95 latency: %.2f ms over %d requests\n", lat.P95, lat.N)

	// --- 5. Drift -> automated retraining workflow ----------------------
	driftedWorld := testSet.Drifted(2.0) // the food distribution moved
	week6, _ := confidencesVia(batcher, driftedWorld)
	r6 := drift.Check(week6)
	accDrifted := served.Accuracy(driftedWorld)
	fmt.Printf("week 6: drift=%v (%s), accuracy dropped to %.4f\n", r6.Drifted, r6.Reason, accDrifted)
	if !r6.Drifted {
		log.Fatal("expected drift to be detected")
	}

	freshTrain := trainSet.Drifted(2.0) // new labeled data from production
	retrain := cicd.Workflow{Name: "retrain-on-drift", Steps: []cicd.Step{
		{Name: "extract-labels", Run: func(c *cicd.Context) error { c.Set("dataset", "food11-v2"); return nil }},
		{Name: "train", DependsOn: []string{"extract-labels"}, Run: func(c *cicd.Context) error {
			run2, err := store.StartRun(exp.ID, "softmax-retrain")
			if err != nil {
				return err
			}
			m2 := mlcore.NewSoftmaxClassifier(freshTrain.Features(), freshTrain.Classes)
			if _, err := mlcore.Train(m2, freshTrain, mlcore.TrainConfig{
				Epochs: 10, BatchSize: 32, LR: 0.2, Workers: 4}); err != nil {
				return err
			}
			newAcc := m2.Accuracy(driftedWorld)
			if err := store.LogMetric(run2.ID, "val_acc", 0, newAcc); err != nil {
				return err
			}
			b, err := m2.Marshal()
			if err != nil {
				return err
			}
			if err := store.LogArtifact(run2.ID, "model.json", b); err != nil {
				return err
			}
			if err := store.EndRun(run2.ID, tracking.StatusFinished); err != nil {
				return err
			}
			c.Set("run_id", run2.ID)
			c.Set("val_acc", fmt.Sprintf("%.4f", newAcc))
			return nil
		}},
		{Name: "register", DependsOn: []string{"train"}, Run: func(c *cicd.Context) error {
			runID, _ := c.Get("run_id")
			v, err := store.CreateModelVersion("food-classifier", runID, "model.json")
			if err != nil {
				return err
			}
			c.Set("version", fmt.Sprint(v.Version))
			return nil
		}},
		{Name: "deploy-staging", DependsOn: []string{"register"}, Run: func(c *cicd.Context) error {
			ver, _ := c.Get("version")
			return pipeline.DeployStaging("food-classifier:v" + ver)
		}},
	}}
	result, err := retrain.Run()
	check(err)
	check(pipeline.PromoteToCanary(0.25))
	check(pipeline.PromoteToProduction(nil))
	_, err = store.TransitionStage("food-classifier", 2, tracking.StageProduction)
	check(err)
	prod, err := store.LatestVersion("food-classifier", tracking.StageProduction)
	check(err)
	newBlob, err := store.LoadModel(prod)
	check(err)
	recovered, err := mlcore.Unmarshal(newBlob)
	check(err)
	_, _, stable = pipeline.Images()
	fmt.Printf("retraining workflow succeeded=%v; registry Production=v%d, cluster serves %s\n",
		result.Succeeded, prod.Version, stable)
	fmt.Printf("accuracy on the drifted distribution: %.4f -> %.4f after retraining\n",
		accDrifted, recovered.Accuracy(driftedWorld))

	check(iac.Destroy(provider, state))
	fmt.Println("\nOK: provision -> DDP train -> track -> canary -> serve -> drift -> retrain -> promote -> destroy")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// batcherHandle wraps the dynamic batcher around a real classifier: the
// executor scores whole batches with the served model and returns each
// request's top-class confidence.
type batcherHandle struct {
	submit func([]float64) (conf float64, err error)
	close  func()
}

func serveModel(m *mlcore.SoftmaxClassifier) *batcherHandle {
	b := serve.NewBatcher(16, time.Millisecond, 2, func(inputs [][]float64) ([][]float64, error) {
		out := make([][]float64, len(inputs))
		for i, x := range inputs {
			p := m.PredictProba(x)
			best := 0.0
			for _, v := range p {
				if v > best {
					best = v
				}
			}
			out[i] = []float64{best}
		}
		return out, nil
	})
	return &batcherHandle{
		submit: func(x []float64) (float64, error) {
			resp, err := b.Submit(x)
			if err != nil {
				return 0, err
			}
			if resp.Err != nil {
				return 0, resp.Err
			}
			return resp.Output[0], nil
		},
		close: b.Close,
	}
}

// confidences computes max-probability confidences directly (reference
// distribution).
func confidences(m *mlcore.SoftmaxClassifier, d *mlcore.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i, x := range d.X {
		p := m.PredictProba(x)
		best := 0.0
		for _, v := range p {
			if v > best {
				best = v
			}
		}
		out[i] = best
	}
	return out
}

// confidencesVia routes every example through the dynamic batcher and
// returns the confidence stream and each request's latency in ms.
func confidencesVia(b *batcherHandle, d *mlcore.Dataset) (conf, latencyMS []float64) {
	conf = make([]float64, d.Len())
	latencyMS = make([]float64, d.Len())
	for i, x := range d.X {
		start := time.Now()
		c, err := b.submit(x)
		if err != nil {
			log.Fatal(err)
		}
		latencyMS[i] = float64(time.Since(start).Microseconds()) / 1000
		conf[i] = c
	}
	return conf, latencyMS
}

package cicd

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/orchestrator"
)

func TestWorkflowRunsInDependencyOrder(t *testing.T) {
	var order []string
	mark := func(name string) func(*Context) error {
		return func(*Context) error { order = append(order, name); return nil }
	}
	// Linear chain ensures deterministic order despite concurrency.
	w := Workflow{Name: "pipeline", Steps: []Step{
		{Name: "train", Run: mark("train")},
		{Name: "evaluate", DependsOn: []string{"train"}, Run: mark("evaluate")},
		{Name: "register", DependsOn: []string{"evaluate"}, Run: mark("register")},
		{Name: "promote", DependsOn: []string{"register"}, Run: mark("promote")},
	}}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatal("workflow did not succeed")
	}
	want := []string{"train", "evaluate", "register", "promote"}
	for i, n := range want {
		if order[i] != n {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWorkflowParallelFanOut(t *testing.T) {
	var running, peak int32
	work := func(*Context) error {
		n := atomic.AddInt32(&running, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		// Spin briefly so siblings overlap.
		for i := 0; i < 100000; i++ {
			_ = i
		}
		atomic.AddInt32(&running, -1)
		return nil
	}
	w := Workflow{Steps: []Step{
		{Name: "root", Run: work},
		{Name: "a", DependsOn: []string{"root"}, Run: work},
		{Name: "b", DependsOn: []string{"root"}, Run: work},
		{Name: "c", DependsOn: []string{"root"}, Run: work},
		{Name: "join", DependsOn: []string{"a", "b", "c"}, Run: work},
	}}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishOrder[0] != "root" || res.FinishOrder[len(res.FinishOrder)-1] != "join" {
		t.Errorf("finish order = %v", res.FinishOrder)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Logf("note: fan-out steps did not observably overlap (peak=%d); acceptable on 1 CPU", peak)
	}
}

func TestWorkflowArtifactPassing(t *testing.T) {
	w := Workflow{Steps: []Step{
		{Name: "train", Run: func(c *Context) error { c.Set("model", "food-v3"); return nil }},
		{Name: "register", DependsOn: []string{"train"}, Run: func(c *Context) error {
			m, ok := c.Get("model")
			if !ok || m != "food-v3" {
				return fmt.Errorf("artifact missing: %q", m)
			}
			return nil
		}},
	}}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkflowFailureSkipsDownstream(t *testing.T) {
	w := Workflow{Steps: []Step{
		{Name: "a", Run: func(*Context) error { return nil }},
		{Name: "b", DependsOn: []string{"a"}, Run: func(*Context) error { return errors.New("boom") }},
		{Name: "c", DependsOn: []string{"b"}, Run: func(*Context) error { return nil }},
		{Name: "d", DependsOn: []string{"c"}, Run: func(*Context) error { return nil }},
		{Name: "independent", Run: func(*Context) error { return nil }},
	}}
	res, err := w.Run()
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v, want ErrStepFailed", err)
	}
	if res.Steps["b"].Status != StepFailed {
		t.Errorf("b status = %v", res.Steps["b"].Status)
	}
	for _, n := range []string{"c", "d"} {
		if res.Steps[n].Status != StepSkipped {
			t.Errorf("%s status = %v, want Skipped", n, res.Steps[n].Status)
		}
	}
	if res.Steps["independent"].Status != StepSucceeded {
		t.Errorf("independent status = %v, want Succeeded", res.Steps["independent"].Status)
	}
}

func TestWorkflowValidation(t *testing.T) {
	cyc := Workflow{Steps: []Step{
		{Name: "a", DependsOn: []string{"b"}},
		{Name: "b", DependsOn: []string{"a"}},
	}}
	if _, err := cyc.Run(); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle err = %v", err)
	}
	bad := Workflow{Steps: []Step{{Name: "a", DependsOn: []string{"ghost"}}}}
	if _, err := bad.Run(); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("unknown step err = %v", err)
	}
}

func newCluster() *orchestrator.Cluster {
	c := orchestrator.NewCluster()
	for i := 0; i < 3; i++ {
		c.AddNode(fmt.Sprintf("node%d", i), 4000, 8192)
	}
	return c
}

func newPipeline(cluster *orchestrator.Cluster) *ReleasePipeline {
	return &ReleasePipeline{
		Cluster:      cluster,
		Service:      "gourmetgram",
		Spec:         orchestrator.PodSpec{CPUMilli: 200, MemMB: 256, Port: 8080},
		ProdReplicas: 4,
	}
}

func TestStagingCanaryProductionFlow(t *testing.T) {
	cluster := newCluster()
	p := newPipeline(cluster)
	if err := p.DeployStaging("model:v1"); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Pods("gourmetgram-staging")); got != 1 {
		t.Fatalf("staging pods = %d", got)
	}
	if err := p.PromoteToCanary(0.25); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Pods("gourmetgram-canary")); got != 1 {
		t.Fatalf("canary pods = %d, want 1 (25%% of 4)", got)
	}
	if err := p.PromoteToProduction(nil); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Pods("gourmetgram")); got != 4 {
		t.Errorf("prod pods = %d, want 4", got)
	}
	if got := len(cluster.Pods("gourmetgram-canary")); got != 0 {
		t.Errorf("canary pods after promote = %d", got)
	}
	_, canary, stable := p.Images()
	if stable != "model:v1" || canary != "" {
		t.Errorf("images after promote: canary=%q stable=%q", canary, stable)
	}
}

func TestCanaryCapacityConstant(t *testing.T) {
	cluster := newCluster()
	p := newPipeline(cluster)
	mustOK(t, p.DeployStaging("model:v1"))
	mustOK(t, p.PromoteToCanary(1))
	mustOK(t, p.PromoteToProduction(nil))
	// Second release at 50% canary: stable 2 + canary 2 = 4 total.
	mustOK(t, p.DeployStaging("model:v2"))
	mustOK(t, p.PromoteToCanary(0.5))
	stable := len(cluster.Pods("gourmetgram"))
	canary := len(cluster.Pods("gourmetgram-canary"))
	if stable != 2 || canary != 2 {
		t.Errorf("stable=%d canary=%d, want 2/2", stable, canary)
	}
}

func TestGateRejectionRollsBackCanary(t *testing.T) {
	cluster := newCluster()
	p := newPipeline(cluster)
	mustOK(t, p.DeployStaging("model:v1"))
	mustOK(t, p.PromoteToCanary(1))
	mustOK(t, p.PromoteToProduction(nil))
	mustOK(t, p.DeployStaging("model:v2"))
	mustOK(t, p.PromoteToCanary(0.5))

	gate := func(image string) error { return fmt.Errorf("error rate 12%% for %s", image) }
	err := p.PromoteToProduction(gate)
	if !errors.Is(err, ErrGateRejected) {
		t.Fatalf("err = %v, want ErrGateRejected", err)
	}
	if got := len(cluster.Pods("gourmetgram-canary")); got != 0 {
		t.Errorf("canary pods after rejection = %d", got)
	}
	if got := len(cluster.Pods("gourmetgram")); got != 4 {
		t.Errorf("prod pods after rejection = %d, want 4 (restored)", got)
	}
	_, _, stable := p.Images()
	if stable != "model:v1" {
		t.Errorf("stable image = %q, want model:v1", stable)
	}
}

func TestPromotionPreconditions(t *testing.T) {
	p := newPipeline(newCluster())
	if err := p.PromoteToCanary(0.5); !errors.Is(err, ErrNoStaging) {
		t.Errorf("canary without staging err = %v", err)
	}
	if err := p.PromoteToProduction(nil); !errors.Is(err, ErrNoCanary) {
		t.Errorf("promote without canary err = %v", err)
	}
	mustOK(t, p.DeployStaging("x"))
	if err := p.PromoteToCanary(0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := p.PromoteToCanary(1.5); err == nil {
		t.Error("weight > 1 accepted")
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWorkflowRun(b *testing.B) {
	w := Workflow{Steps: []Step{
		{Name: "a", Run: func(*Context) error { return nil }},
		{Name: "b", DependsOn: []string{"a"}, Run: func(*Context) error { return nil }},
		{Name: "c", DependsOn: []string{"a"}, Run: func(*Context) error { return nil }},
		{Name: "d", DependsOn: []string{"b", "c"}, Run: func(*Context) error { return nil }},
	}}
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

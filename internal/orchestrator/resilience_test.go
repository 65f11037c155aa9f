package orchestrator

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Node failure -> eviction -> reschedule, with MTTR measured from the
// moment the node went down.
func TestEvacuationReportsMTTR(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	c := NewCluster()
	c.SetClock(clk)
	c.SetTelemetry(tel)
	c.AddNode("n0", 4000, 8192)
	c.AddNode("n1", 4000, 8192)
	c.Apply(Deployment{Name: "web", Replicas: 2,
		Spec: PodSpec{Image: "web:v1", CPUMilli: 500, MemMB: 256}})
	c.ReconcileToFixedPoint()
	pods := c.Pods("web")
	if len(pods) != 2 {
		t.Fatalf("got %d pods, want 2", len(pods))
	}
	victim := pods[0].Node

	clk.RunUntil(2)
	// The node dies at t=2, marked down the way SyncFromCloud marks it.
	c.mu.Lock()
	c.nodes[victim].Ready = false
	c.downSince[victim] = 2
	c.mu.Unlock()
	// Detection lags the failure: reconciliation runs an hour later.
	clk.RunUntil(3)
	c.ReconcileToFixedPoint()

	stats := c.Resilience()
	var lost int64
	for _, p := range pods {
		if p.Node == victim {
			lost++
		}
	}
	if stats.Evictions != lost || stats.Reschedules != lost {
		t.Fatalf("evictions/reschedules = %d/%d, want %d/%d", stats.Evictions, stats.Reschedules, lost, lost)
	}
	// MTTR counts from the node death at t=2, not the reconcile at t=3.
	if stats.MeanMTTRHrs != 1 {
		t.Fatalf("mean MTTR = %v, want 1", stats.MeanMTTRHrs)
	}
	for _, p := range c.Pods("web") {
		if p.Node == victim {
			t.Fatalf("pod %s still on the dead node", p.Name)
		}
	}
	if tel.Counter("orchestrator.evictions").Value() != lost ||
		tel.Counter("orchestrator.reschedules").Value() != lost {
		t.Fatal("telemetry counters missing")
	}
	// Each reschedule observes its MTTR (1h here) into the latency histogram.
	h, _ := telemetry.Find(tel.Snapshot(), "orchestrator.reschedule_latency_hours")
	if h.Count != lost || h.Sum != float64(lost) {
		t.Fatalf("reschedule latency = %d samples summing %vh, want %d summing %dh", h.Count, h.Sum, lost, lost)
	}
}

func TestRollingUpdateEmitsTelemetry(t *testing.T) {
	tel := telemetry.New()
	c := NewCluster()
	c.SetTelemetry(tel)
	c.AddNode("n0", 4000, 8192)
	c.Apply(Deployment{Name: "api", Replicas: 2,
		Spec: PodSpec{Image: "api:v1", CPUMilli: 100, MemMB: 64}})
	c.ReconcileToFixedPoint()
	c.Apply(Deployment{Name: "api", Replicas: 2,
		Spec: PodSpec{Image: "api:v2", CPUMilli: 100, MemMB: 64}})
	c.ReconcileToFixedPoint()
	if got := tel.Counter("orchestrator.rolling_updates").Value(); got != 2 {
		t.Fatalf("rolling_updates = %d, want 2", got)
	}
}

// The detection path: chaos downs a cloud host, and SyncFromCloud maps
// the errored instances onto cluster nodes, evacuates, and backdates
// MTTR to the crash instant.
func TestSyncFromCloudEvacuatesAndBackdates(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	cl := cloud.New("test", clk)
	cl.AddVMCapacity(2, 8, 32)
	cl.CreateProject("p", cloud.DefaultProjectQuota())

	c := NewCluster()
	c.SetClock(clk)
	c.SetTelemetry(tel)
	// Two cloud-backed nodes: instance Name == cluster node name.
	insts := map[string]*cloud.Instance{}
	for _, name := range []string{"node-a", "node-b"} {
		inst, err := cl.Launch(cloud.LaunchSpec{Project: "p", Name: name, Flavor: cloud.M1XLarge})
		if err != nil {
			t.Fatal(err)
		}
		insts[name] = inst
		c.AddNode(name, 4000, 8192)
	}
	if insts["node-a"].Host == insts["node-b"].Host {
		t.Fatal("test needs the instances on distinct hosts")
	}
	c.Apply(Deployment{Name: "train", Replicas: 2,
		Spec: PodSpec{Image: "train:v1", CPUMilli: 1000, MemMB: 1024}})
	c.ReconcileToFixedPoint()

	clk.RunUntil(4)
	if err := cl.FailHost(insts["node-a"].Host); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(6) // orchestrator notices two hours later
	if n := c.SyncFromCloud(cl); n == 0 {
		t.Fatal("sync took no actions despite a dead node")
	}
	for _, p := range c.Pods("train") {
		if p.Node == "node-a" {
			t.Fatalf("pod %s still on dead node", p.Name)
		}
	}
	stats := c.Resilience()
	if stats.Evictions != 1 || stats.Reschedules != 1 {
		t.Fatalf("evictions/reschedules = %d/%d, want 1/1", stats.Evictions, stats.Reschedules)
	}
	if stats.MeanMTTRHrs != 2 {
		t.Fatalf("MTTR = %v, want 2 (backdated to the crash at t=4)", stats.MeanMTTRHrs)
	}
	// Recovery: host comes back, a fresh instance backs the node, and the
	// next sync marks it ready again.
	if err := cl.RecoverHost(insts["node-a"].Host); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Launch(cloud.LaunchSpec{Project: "p", Name: "node-a", Flavor: cloud.M1XLarge}); err != nil {
		t.Fatal(err)
	}
	c.SyncFromCloud(cl)
	c.mu.Lock()
	ready := c.nodes["node-a"].Ready
	c.mu.Unlock()
	if !ready {
		t.Fatal("node-a not ready after its replacement instance launched")
	}
}

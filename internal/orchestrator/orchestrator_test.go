package orchestrator

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func threeNodeCluster() *Cluster {
	c := NewCluster()
	// The lab topology: three m1.medium VMs (2 vCPU / 4 GB each).
	for _, n := range []string{"node1", "node2", "node3"} {
		c.AddNode(n, 2000, 4096)
	}
	return c
}

func webSpec() PodSpec {
	return PodSpec{Image: "gourmetgram/food-classifier:v1", CPUMilli: 500, MemMB: 512, Port: 8080}
}

func TestDeployAndScale(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "food-classifier", Replicas: 3, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	pods := c.Pods("food-classifier")
	if len(pods) != 3 {
		t.Fatalf("got %d pods, want 3", len(pods))
	}
	// Spread: each pod on a different node.
	nodes := map[string]bool{}
	for _, p := range pods {
		nodes[p.Node] = true
	}
	if len(nodes) != 3 {
		t.Errorf("pods on %d nodes, want spread across 3", len(nodes))
	}
	// Scale up then down.
	c.Apply(Deployment{Name: "food-classifier", Replicas: 5, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	if got := len(c.Pods("food-classifier")); got != 5 {
		t.Errorf("after scale up: %d pods", got)
	}
	c.Apply(Deployment{Name: "food-classifier", Replicas: 1, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	if got := len(c.Pods("food-classifier")); got != 1 {
		t.Errorf("after scale down: %d pods", got)
	}
}

func TestUnschedulableLeavesUnderReplicated(t *testing.T) {
	c := NewCluster()
	c.AddNode("tiny", 1000, 1024)
	c.Apply(Deployment{Name: "big", Replicas: 3, Spec: PodSpec{CPUMilli: 800, MemMB: 512}})
	c.ReconcileToFixedPoint()
	if got := len(c.Pods("big")); got != 1 {
		t.Errorf("got %d pods, want 1 (capacity-limited)", got)
	}
	// Adding a node lets reconciliation make progress.
	c.AddNode("big-node", 4000, 8192)
	c.ReconcileToFixedPoint()
	if got := len(c.Pods("big")); got != 3 {
		t.Errorf("after adding node: %d pods, want 3", got)
	}
}

func TestNodeFailureRescheduling(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	// A node goes down the way SyncFromCloud marks it.
	c.nodes["node2"].Ready = false
	c.ReconcileToFixedPoint()
	pods := c.Pods("svc")
	if len(pods) != 3 {
		t.Fatalf("after failure: %d pods, want 3 (rescheduled)", len(pods))
	}
	for _, p := range pods {
		if p.Node == "node2" {
			t.Errorf("pod %s still on failed node", p.Name)
		}
	}
}

func TestRollingUpdateReplacesAllPods(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	v2 := webSpec()
	v2.Image = "gourmetgram/food-classifier:v2"
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: v2})
	c.ReconcileToFixedPoint()
	for _, p := range c.Pods("svc") {
		if p.Spec.Image != v2.Image {
			t.Errorf("pod %s still runs %s", p.Name, p.Spec.Image)
		}
	}
	if got := len(c.Pods("svc")); got != 3 {
		t.Errorf("after rolling update: %d pods", got)
	}
}

func TestRollingUpdateIsIncremental(t *testing.T) {
	// One Reconcile pass must not terminate more than one stale pod per
	// deployment, so capacity degrades gradually.
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	v2 := webSpec()
	v2.Image = "v2"
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: v2})
	c.Reconcile() // single pass
	pods := c.Pods("svc")
	v1 := 0
	for _, p := range pods {
		if p.Spec.Image != "v2" {
			v1++
		}
	}
	if v1 != 2 {
		t.Errorf("after one pass, %d v1 pods remain, want 2", v1)
	}
	// The same pass schedules the replaced pod's successor.
	if len(pods) != 3 {
		t.Errorf("after one pass, %d pods run, want 3", len(pods))
	}
}

// TestReconcileQuietPassAllocs is Reconcile's allocation contract: a
// pass with nothing to do lists the pod and deployment names and builds
// each deployment's live pods once.
func TestReconcileQuietPassAllocs(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	fewest := math.Inf(1)
	for i := 0; i < 50; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() {
			if n := c.Reconcile(); n != 0 {
				t.Fatalf("quiet pass took %d actions", n)
			}
		}))
	}
	if fewest > 3 {
		t.Errorf("a quiet Reconcile pass allocates %v, want <= 3", fewest)
	}
}

func TestServiceRoundRobin(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "svc", Replicas: 3, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	if _, err := c.Expose("svc-lb", "svc", 80); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 9; i++ {
		p, err := c.Route("svc-lb")
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Name]++
	}
	if len(counts) != 3 {
		t.Fatalf("requests hit %d pods, want 3", len(counts))
	}
	for name, n := range counts {
		if n != 3 {
			t.Errorf("pod %s received %d of 9 requests, want 3", name, n)
		}
	}
}

func TestRouteErrors(t *testing.T) {
	c := threeNodeCluster()
	if _, err := c.Route("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("route to missing service err = %v", err)
	}
	c.Apply(Deployment{Name: "svc", Replicas: 0, Spec: webSpec()})
	if _, err := c.Expose("svc-lb", "svc", 80); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Route("svc-lb"); !errors.Is(err, ErrNotFound) {
		t.Errorf("route with no endpoints err = %v", err)
	}
	if _, err := c.Expose("svc-lb", "svc", 80); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate expose err = %v", err)
	}
	if _, err := c.Expose("x", "ghost", 80); !errors.Is(err, ErrNotFound) {
		t.Errorf("expose of missing deployment err = %v", err)
	}
}

func TestDeleteDeployment(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "svc", Replicas: 2, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	if err := c.DeleteDeployment("svc"); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Pods("")); got != 0 {
		t.Errorf("%d pods after delete", got)
	}
	if err := c.DeleteDeployment("svc"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	// Capacity was released.
	c.Apply(Deployment{Name: "svc2", Replicas: 6, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	if got := len(c.Pods("svc2")); got != 6 {
		t.Errorf("capacity not released: %d pods", got)
	}
}

func TestCapacityAccountingProperty(t *testing.T) {
	// Property: after any sequence of applies/reconciles/failures, node
	// allocations stay within capacity and non-negative.
	f := func(ops []uint8) bool {
		c := threeNodeCluster()
		for _, op := range ops {
			switch op % 4 {
			case 0:
				c.Apply(Deployment{Name: "a", Replicas: int(op % 7), Spec: webSpec()})
			case 1:
				c.Apply(Deployment{Name: "b", Replicas: int(op % 5), Spec: PodSpec{Image: "x", CPUMilli: 300, MemMB: 256}})
			case 2:
				c.mu.Lock()
				c.nodes["node2"].Ready = op%2 == 0
				c.mu.Unlock()
			case 3:
				c.ReconcileToFixedPoint()
			}
			for _, n := range []string{"node1", "node2", "node3"} {
				c.mu.Lock()
				node := c.nodes[n]
				bad := node.allocCPU < 0 || node.allocMem < 0 ||
					node.allocCPU > node.CPUMilli || node.allocMem > node.MemMB
				c.mu.Unlock()
				if bad {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReconcile100Pods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCluster()
		for j := 0; j < 10; j++ {
			c.AddNode(string(rune('a'+j)), 16000, 32768)
		}
		c.Apply(Deployment{Name: "svc", Replicas: 100, Spec: PodSpec{CPUMilli: 100, MemMB: 128}})
		c.ReconcileToFixedPoint()
	}
}

// TestPodsAllocs is the heartbeat read's allocation contract: Pods sizes
// its result once and sorts it without reflection, so the result is the
// only allocation. It also checks the order: by name, other deployments
// left out.
func TestPodsAllocs(t *testing.T) {
	c := threeNodeCluster()
	c.Apply(Deployment{Name: "train", Replicas: 5, Spec: webSpec()})
	c.Apply(Deployment{Name: "serve", Replicas: 2, Spec: webSpec()})
	c.ReconcileToFixedPoint()
	var pods []*Pod
	fewest := math.Inf(1)
	for i := 0; i < 50; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { pods = c.Pods("train") }))
	}
	if fewest > 1 {
		t.Errorf("Pods allocates %v, want <= 1", fewest)
	}
	if len(pods) != 5 {
		t.Fatalf("Pods(train) = %d pods, want 5", len(pods))
	}
	for i, p := range pods {
		if p.Deployment != "train" || i > 0 && pods[i-1].Name >= p.Name {
			t.Fatalf("Pods(train) not the train pods sorted by name: %v at %d", p.Name, i)
		}
	}
	if all := c.Pods(""); len(all) != 7 {
		t.Errorf("Pods(\"\") = %d pods, want 7", len(all))
	}
}

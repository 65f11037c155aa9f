// Quickstart: the Unit-1/Unit-2 workflow in ~60 lines — provision a VM
// with a public address on the simulated testbed, deploy a containerized
// service behind a load balancer, and ask the cost model what the same
// hour would cost on a commercial cloud.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/orchestrator"
	"repro/internal/simclock"
)

func main() {
	log.SetFlags(0)

	// 1. Provision infrastructure (the "Hello, Chameleon" lab).
	clk := simclock.New()
	site := cloud.New("kvm@tacc", clk)
	site.AddVMCapacity(4, 48, 192)
	site.CreateProject("demo", cloud.DefaultProjectQuota())

	inst, err := site.Launch(cloud.LaunchSpec{
		Project: "demo", Name: "node-1", Flavor: cloud.M1Medium,
		Tags: cloud.NewTags("lab", "quickstart"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fip, err := site.AllocateFloatingIP("demo", cloud.Tags{})
	if err != nil {
		log.Fatal(err)
	}
	if err := site.AssociateFloatingIP(fip.ID, inst.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s ACTIVE on %s, reachable at %s\n", inst.ID, inst.Host, fip.Address)

	// 2. Deploy a containerized model service with replicas and a
	// round-robin load balancer (the Unit-2 Kubernetes exercise).
	cluster := orchestrator.NewCluster()
	cluster.AddNode(inst.Name, 2000, 4096)
	cluster.Apply(orchestrator.Deployment{
		Name: "food-classifier", Replicas: 2,
		Spec: orchestrator.PodSpec{Image: "gourmetgram/food11:v1", CPUMilli: 500, MemMB: 512, Port: 8080},
	})
	cluster.ReconcileToFixedPoint()
	if _, err := cluster.Expose("food-classifier-svc", "food-classifier", 80); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pod, err := cluster.Route("food-classifier-svc")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("request %d -> %s\n", i+1, pod.Name)
	}

	// 3. Use the instance for six simulated hours, then ask what that
	// costs on AWS and GCP.
	clk.RunUntil(6)
	hours := inst.HoursAt(clk.Now())
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		c, err := cost.LabRowCost(cost.LabUsage{RowID: "2", InstanceHours: hours, FIPHours: hours}, p)
		if err != nil {
			log.Fatal(err)
		}
		eq, _ := cost.LabEquivalent("2")
		fmt.Printf("%.0f hours on %s: $%.3f (%s equivalent)\n", hours, p, c, eq.Rate(p).Instance)
	}
	fmt.Println("\nOK: provisioned, deployed, load-balanced, priced.")
}

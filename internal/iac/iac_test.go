package iac

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

// labModule declares the Unit-3 lab topology: network + subnet + 3
// instances + a floating IP on node1.
func labModule(student string) *Module {
	m := NewModule()
	m.MustAdd(Resource{Type: "network", Name: "private", Attrs: map[string]string{"name": "private_net"}})
	m.MustAdd(Resource{Type: "subnet", Name: "private", DependsOn: []string{"network.private"},
		Attrs: map[string]string{"network": "network.private", "name": "private_subnet", "cidr": "192.168.1.0/24"}})
	for _, n := range []string{"node1", "node2", "node3"} {
		m.MustAdd(Resource{Type: "instance", Name: n, DependsOn: []string{"subnet.private"},
			Attrs: map[string]string{"name": n, "flavor": "m1.medium", "network": "network.private",
				"lab": "lab3", "student": student}})
	}
	m.MustAdd(Resource{Type: "floating_ip", Name: "fip", DependsOn: []string{"instance.node1"},
		Attrs: map[string]string{"instance": "instance.node1", "lab": "lab3", "student": student}})
	return m
}

func newProvider() (*CloudProvider, *cloud.Cloud, *simclock.Clock) {
	clk := simclock.New()
	cl := cloud.New("kvm@test", clk)
	cl.AddVMCapacity(4, 48, 192)
	cl.CreateProject("class", cloud.CourseQuota())
	return &CloudProvider{Cloud: cl, Project: "class"}, cl, clk
}

func TestPlanApplyCreatesEverything(t *testing.T) {
	p, cl, _ := newProvider()
	m := labModule("s001")
	s := NewState()
	plan, err := PlanChanges(m, s)
	if err != nil {
		t.Fatal(err)
	}
	c, u, d := plan.Summary()
	if c != 6 || u != 0 || d != 0 {
		t.Fatalf("plan summary = %d/%d/%d, want 6 creates", c, u, d)
	}
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.List(func(i *cloud.Instance) bool { return i.Running() })); got != 3 {
		t.Errorf("%d instances running, want 3", got)
	}
	// Instance got its fixed IP from the module's network.
	e, _ := s.Get("instance.node1")
	inst, _ := cl.Get(e.ID)
	if inst.FixedIP == "" {
		t.Error("instance missing fixed IP from declared network")
	}
	if inst.FloatingIP == "" {
		t.Error("floating IP not associated")
	}
}

func TestApplyIsIdempotent(t *testing.T) {
	p, cl, _ := newProvider()
	m := labModule("s001")
	s := NewState()
	plan, _ := PlanChanges(m, s)
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	plan2, err := PlanChanges(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if c, u, d := plan2.Summary(); c+u+d != 0 {
		t.Fatalf("second plan not empty: %d/%d/%d", c, u, d)
	}
	if err := Apply(plan2, p, s); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.List(func(i *cloud.Instance) bool { return i.Running() })); got != 3 {
		t.Errorf("idempotent apply changed instance count: %d", got)
	}
}

func TestAttributeChangeReplacesResource(t *testing.T) {
	p, cl, _ := newProvider()
	m := labModule("s001")
	s := NewState()
	plan, _ := PlanChanges(m, s)
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Get("instance.node1")

	// Resize node1 to m1.large: plan must be an update (replace).
	m2 := labModule("s001")
	r := m2.resources["instance.node1"]
	r.Attrs["flavor"] = "m1.large"
	m2.resources["instance.node1"] = r
	plan2, _ := PlanChanges(m2, s)
	c, u, d := plan2.Summary()
	if u != 1 || c != 0 || d != 0 {
		t.Fatalf("plan = %d/%d/%d, want exactly 1 update", c, u, d)
	}
	if err := Apply(plan2, p, s); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Get("instance.node1")
	if before.ID == after.ID {
		t.Error("replacement kept the same instance ID")
	}
	inst, _ := cl.Get(after.ID)
	if inst.Flavor.Name != "m1.large" {
		t.Errorf("replaced instance flavor = %s", inst.Flavor.Name)
	}
	old, _ := cl.Get(before.ID)
	if old.Running() {
		t.Error("old instance still running after replacement")
	}
}

func TestRemovedResourceIsDeleted(t *testing.T) {
	p, cl, _ := newProvider()
	m := labModule("s001")
	s := NewState()
	plan, _ := PlanChanges(m, s)
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	// New module without node3.
	m2 := NewModule()
	for _, r := range m.resources {
		if r.Address() != "instance.node3" {
			m2.MustAdd(r)
		}
	}
	plan2, _ := PlanChanges(m2, s)
	_, _, d := plan2.Summary()
	if d != 1 {
		t.Fatalf("plan deletes = %d, want 1", d)
	}
	if err := Apply(plan2, p, s); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.List(func(i *cloud.Instance) bool { return i.Running() })); got != 2 {
		t.Errorf("%d instances running, want 2", got)
	}
	if _, ok := s.Get("instance.node3"); ok {
		t.Error("deleted resource still in state")
	}
}

func TestDestroy(t *testing.T) {
	p, cl, _ := newProvider()
	m := labModule("s001")
	s := NewState()
	plan, _ := PlanChanges(m, s)
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	if err := Destroy(p, s); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.List(func(i *cloud.Instance) bool { return i.Running() })); got != 0 {
		t.Errorf("%d instances running after destroy", got)
	}
	if got := len(s.Addresses()); got != 0 {
		t.Errorf("%d state entries after destroy", got)
	}
}

func TestCycleDetection(t *testing.T) {
	m := NewModule()
	m.MustAdd(Resource{Type: "a", Name: "x", DependsOn: []string{"b.y"}})
	m.MustAdd(Resource{Type: "b", Name: "y", DependsOn: []string{"a.x"}})
	if _, err := PlanChanges(m, NewState()); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle err = %v", err)
	}
}

func TestUnknownDependency(t *testing.T) {
	m := NewModule()
	m.MustAdd(Resource{Type: "a", Name: "x", DependsOn: []string{"ghost.y"}})
	if _, err := PlanChanges(m, NewState()); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown dep err = %v", err)
	}
}

// An address-valued attribute naming an undeclared resource fails the
// plan like an unknown DependsOn entry, so applying creates nothing
// that the failed reference would strand in state.
func TestUnknownAttributeReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  []Resource
	}{
		{"floating_ip instance", []Resource{
			{Type: "instance", Name: "node1", Attrs: map[string]string{"name": "node1", "flavor": "m1.small"}},
			{Type: "floating_ip", Name: "ip", Attrs: map[string]string{"instance": "instance.nope"}},
		}},
		{"subnet network", []Resource{
			{Type: "network", Name: "n", Attrs: map[string]string{"name": "n"}},
			{Type: "subnet", Name: "s", Attrs: map[string]string{"network": "network.typo", "name": "s", "cidr": "10.0.0.0/24"}},
		}},
	} {
		p, cl, _ := newProvider()
		m := NewModule()
		for _, r := range tc.res {
			m.MustAdd(r)
		}
		s := NewState()
		plan, err := PlanChanges(m, s)
		if !errors.Is(err, ErrUnknown) {
			t.Errorf("%s: plan err = %v, want ErrUnknown", tc.name, err)
			_ = Apply(plan, p, s) // what a clean plan lets through
		}
		proj, _ := cl.GetProject("class")
		if n := len(s.Addresses()); n != 0 || proj.Usage != (cloud.Usage{}) {
			t.Errorf("%s: %d state entries and usage %+v, want none", tc.name, n, proj.Usage)
		}
	}
}

func TestDuplicateAddress(t *testing.T) {
	m := NewModule()
	m.MustAdd(Resource{Type: "a", Name: "x"})
	if err := m.Add(Resource{Type: "a", Name: "x"}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	m := labModule("s")
	addrs, err := m.topoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, addr := range addrs {
		pos[addr] = i
	}
	for _, addr := range addrs {
		r := m.resources[addr]
		for _, dep := range r.DependsOn {
			if pos[dep] >= pos[r.Address()] {
				t.Errorf("%s ordered before its dependency %s", r.Address(), dep)
			}
		}
	}
}

func TestPlaybookIdempotency(t *testing.T) {
	hosts := []*HostState{NewHost("node1"), NewHost("node2"), NewHost("node3")}
	pb := KubesprayPlaybook()
	r1, err := pb.Run(hosts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Changed != 18 || r1.OK != 0 { // 6 tasks × 3 hosts
		t.Errorf("first run: %+v", r1)
	}
	r2, err := pb.Run(hosts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Changed != 0 || r2.OK != 18 {
		t.Errorf("second run not idempotent: %+v", r2)
	}
	for _, h := range hosts {
		if !h.Services["kubelet"] || !h.Packages["containerd"] {
			t.Errorf("host %s not converged: %+v", h.Name, h)
		}
	}
}

func TestPlaybookOrderingFailure(t *testing.T) {
	// Starting a service whose package task was omitted must fail.
	pb := Playbook{Name: "bad", Tasks: []Task{ServiceRunning("kubelet", "kubelet")}}
	hosts := []*HostState{NewHost("n1"), NewHost("n2")}
	report, err := pb.Run(hosts)
	if err == nil {
		t.Fatal("expected failure")
	}
	if report.Failed != 2 {
		t.Errorf("failed = %d, want 2 (both hosts attempted)", report.Failed)
	}
}

func BenchmarkPlanApply(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _ := newProvider()
		s := NewState()
		plan, err := PlanChanges(labModule("s001"), s)
		if err != nil {
			b.Fatal(err)
		}
		if err := Apply(plan, p, s); err != nil {
			b.Fatal(err)
		}
	}
}

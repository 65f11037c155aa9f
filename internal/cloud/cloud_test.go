package cloud

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func newTestCloud() (*Cloud, *simclock.Clock) {
	clk := simclock.New()
	c := New("kvm@test", clk)
	c.AddVMCapacity(4, 48, 192)
	c.CreateProject("class", CourseQuota())
	return c, clk
}

func TestLaunchDeleteMetering(t *testing.T) {
	c, clk := newTestCloud()
	inst, err := c.Launch(LaunchSpec{Project: "class", Name: "node1", Flavor: M1Medium,
		Tags: NewTags("lab", "lab2", "student", "s001")})
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != StateActive {
		t.Fatalf("state = %v, want ACTIVE", inst.State)
	}
	clk.RunUntil(10)
	if h := inst.HoursAt(clk.Now()); h != 10 {
		t.Errorf("accrued hours = %v, want 10", h)
	}
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(20)
	if h := inst.HoursAt(clk.Now()); h != 10 {
		t.Errorf("hours after delete = %v, want frozen at 10", h)
	}
	total := c.Meter().TotalHours(clk.Now(), func(r *UsageRecord) bool { return r.Tags.Get("lab") == "lab2" })
	if total != 10 {
		t.Errorf("metered hours = %v, want 10", total)
	}
}

func TestDeleteIdempotencyAndErrors(t *testing.T) {
	c, _ := newTestCloud()
	inst, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(inst.ID); !errors.Is(err, ErrAlreadyDeleted) {
		t.Errorf("second delete err = %v, want ErrAlreadyDeleted", err)
	}
	if err := c.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing delete err = %v, want ErrNotFound", err)
	}
}

func TestQuotaEnforcement(t *testing.T) {
	clk := simclock.New()
	c := New("kvm@test", clk)
	c.AddVMCapacity(10, 128, 512)
	c.CreateProject("small", Quota{Instances: 2, Cores: 100, RAMGB: 100,
		Networks: 1, Routers: 1, FloatingIPs: 1, SecurityGroups: 1})
	if _, err := c.Launch(LaunchSpec{Project: "small", Flavor: M1Medium}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(LaunchSpec{Project: "small", Flavor: M1Medium}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Launch(LaunchSpec{Project: "small", Flavor: M1Medium})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third launch err = %v, want QuotaError", err)
	}
	if qe.Dimension != "instances" {
		t.Errorf("exceeded dimension = %s, want instances", qe.Dimension)
	}
}

// TestQuotaCheckDoesNotWrap asks for so much that usage plus request
// wraps past the largest int: the check must still refuse it.
func TestQuotaCheckDoesNotWrap(t *testing.T) {
	q := Quota{Instances: 10, Cores: 100, RAMGB: 100}
	err := q.CanLaunch(Usage{Instances: 1, Cores: 10, RAMGB: 10}, Flavor{VCPUs: math.MaxInt, RAMGB: 1})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Dimension != "cores" {
		t.Errorf("CanLaunch of MaxInt cores err = %v, want a cores QuotaError", err)
	}
}

func TestQuotaReleasedOnDelete(t *testing.T) {
	clk := simclock.New()
	c := New("kvm@test", clk)
	c.AddVMCapacity(2, 16, 64)
	c.CreateProject("p", Quota{Instances: 1, Cores: 4, RAMGB: 8})
	a, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Medium})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Medium}); err == nil {
		t.Fatal("expected quota failure")
	}
	if err := c.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Medium}); err != nil {
		t.Fatalf("launch after delete: %v", err)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	clk := simclock.New()
	c := New("kvm@test", clk)
	c.AddHost(NewVMHost("hv0", 4, 8))
	c.CreateProject("p", CourseQuota())
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Medium}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Medium}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Medium}); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

func TestBareMetalExclusive(t *testing.T) {
	clk := simclock.New()
	c := New("chi@test", clk)
	c.AddBareMetal(1, GPUA100PCIe)
	c.CreateProject("p", CourseQuota())
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: GPUA100PCIe}); err != nil {
		t.Fatal(err)
	}
	// Second launch on the single node must fail.
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: GPUA100PCIe}); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
	// A VM flavor cannot land on a bare-metal host.
	if _, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Small}); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("vm on baremetal err = %v, want ErrNoCapacity", err)
	}
}

func TestDeleteAtAutoTerminates(t *testing.T) {
	c, clk := newTestCloud()
	inst, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	c.DeleteAt(inst.ID, 5)
	clk.RunUntil(4)
	if !inst.Running() {
		t.Fatal("instance deleted too early")
	}
	clk.RunUntil(6)
	if inst.Running() {
		t.Fatal("instance not auto-deleted")
	}
	if inst.DeletedAt != 5 {
		t.Errorf("DeletedAt = %v, want 5", inst.DeletedAt)
	}
	// Auto-delete after a manual delete is a no-op (no panic, no error).
	inst2, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	c.DeleteAt(inst2.ID, 10)
	if err := c.Delete(inst2.ID); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(11)
	if inst2.DeletedAt >= 10 {
		t.Errorf("manual DeletedAt overwritten: %v", inst2.DeletedAt)
	}
}

func TestFloatingIPLifecycle(t *testing.T) {
	c, clk := newTestCloud()
	inst, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	fip, err := c.AllocateFloatingIP("class", NewTags("lab", "lab1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AssociateFloatingIP(fip.ID, inst.ID); err != nil {
		t.Fatal(err)
	}
	if inst.FloatingIP != fip.Address {
		t.Errorf("instance floating IP = %q, want %q", inst.FloatingIP, fip.Address)
	}
	// Double-associate fails.
	if err := c.AssociateFloatingIP(fip.ID, inst.ID); !errors.Is(err, ErrIPInUse) {
		t.Errorf("double associate err = %v, want ErrIPInUse", err)
	}
	clk.RunUntil(7)
	if err := c.ReleaseFloatingIP(fip.ID); err != nil {
		t.Fatal(err)
	}
	if inst.FloatingIP != "" {
		t.Error("instance retains released floating IP")
	}
	hours := c.Meter().TotalHours(clk.Now(), func(r *UsageRecord) bool { return r.Kind == UsageFloatingIP })
	if hours != 7 {
		t.Errorf("floating IP hours = %v, want 7", hours)
	}
	p, _ := c.GetProject("class")
	if p.Usage.FloatingIPs != 0 {
		t.Errorf("floating IP usage = %d, want 0", p.Usage.FloatingIPs)
	}
}

func TestDeleteReleasesFloatingIPAssociation(t *testing.T) {
	c, _ := newTestCloud()
	inst, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	fip, _ := c.AllocateFloatingIP("class", Tags{})
	_ = c.AssociateFloatingIP(fip.ID, inst.ID)
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	if fip.InstanceID != "" {
		t.Error("floating IP still bound to deleted instance")
	}
	// The address can be reused by another instance.
	inst2, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	if err := c.AssociateFloatingIP(fip.ID, inst2.ID); err != nil {
		t.Fatal(err)
	}
}

// An instance holds one address: a second binding is refused, naming the
// instance, and deleting the instance leaves no address bound to it.
func TestOneFloatingIPPerInstance(t *testing.T) {
	c, _ := newTestCloud()
	inst, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	first, _ := c.AllocateFloatingIP("class", Tags{})
	second, _ := c.AllocateFloatingIP("class", Tags{})
	if err := c.AssociateFloatingIP(first.ID, inst.ID); err != nil {
		t.Fatal(err)
	}
	err := c.AssociateFloatingIP(second.ID, inst.ID)
	if !errors.Is(err, ErrIPInUse) || !strings.Contains(err.Error(), inst.ID) {
		t.Errorf("second associate err = %v, want ErrIPInUse naming %s", err, inst.ID)
	}
	if inst.FloatingIP != first.Address {
		t.Errorf("instance holds %q, want the first address %q", inst.FloatingIP, first.Address)
	}
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*FloatingIP{first, second} {
		next, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
		if err := c.AssociateFloatingIP(f.ID, next.ID); err != nil {
			t.Errorf("associate %s after the delete: %v", f.Address, err)
		}
	}
}

func TestNetworkingTopology(t *testing.T) {
	c, _ := newTestCloud()
	net, err := c.CreateNetwork("class", "private_net")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSubnet(net.ID, "private_subnet", "192.168.1.0/24"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRouter("class", "router1"); err != nil {
		t.Fatal(err)
	}
	inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Medium, NetworkID: net.ID})
	if err != nil {
		t.Fatal(err)
	}
	if inst.FixedIP == "" {
		t.Error("instance on network has no fixed IP")
	}
	inst2, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Medium, NetworkID: net.ID})
	if inst.FixedIP == inst2.FixedIP {
		t.Errorf("duplicate fixed IPs: %s", inst.FixedIP)
	}
}

func TestSecurityGroups(t *testing.T) {
	c, _ := newTestCloud()
	g, err := c.CreateSecurityGroup("class", "ssh-http")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "ssh-http" || g.Project != "class" {
		t.Errorf("security group = %+v", g)
	}
}

func TestPlacementPolicies(t *testing.T) {
	mk := func() []*Host {
		return []*Host{NewVMHost("a", 8, 32), NewVMHost("b", 16, 64)}
	}
	// Host a keeps room for a medium until an xlarge fills it.
	hosts := mk()
	hosts[0].place(&Instance{ID: "x", Flavor: M1Medium})

	if h := firstFit(hosts, M1Medium); h.Name != "a" {
		t.Errorf("firstFit chose %s, want a", h.Name)
	}
	hosts[0].place(&Instance{ID: "y", Flavor: M1XLarge})
	if h := firstFit(hosts, M1Medium); h.Name != "b" {
		t.Errorf("firstFit chose %s, want b (a is full)", h.Name)
	}
	if h := firstFit(nil, M1Medium); h != nil {
		t.Error("placement on no hosts should be nil")
	}
}

func TestHostAccountingNeverNegative(t *testing.T) {
	// Property: any interleaving of launches and deletes keeps host and
	// quota accounting non-negative and within capacity.
	f := func(ops []bool) bool {
		clk := simclock.New()
		c := New("prop", clk)
		c.AddVMCapacity(2, 16, 32)
		c.CreateProject("p", CourseQuota())
		var live []*Instance
		for _, launch := range ops {
			if launch {
				if inst, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Small}); err == nil {
					live = append(live, inst)
				}
			} else if len(live) > 0 {
				_ = c.Delete(live[len(live)-1].ID)
				live = live[:len(live)-1]
			}
			p, _ := c.GetProject("p")
			if p.Usage.Instances < 0 || p.Usage.Cores < 0 || p.Usage.RAMGB < 0 {
				return false
			}
			for _, h := range c.Hosts() {
				if h.allocVCPUs > h.VCPUs || h.allocRAMGB > h.RAMGB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMeterAggregations(t *testing.T) {
	c, clk := newTestCloud()
	for i, lab := range []string{"lab1", "lab1", "lab2"} {
		inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Medium,
			Tags: NewTags("lab", lab)})
		if err != nil {
			t.Fatal(err)
		}
		c.DeleteAt(inst.ID, float64(2*(i+1)))
	}
	clk.Run()
	byRes := c.Meter().HoursByResource(clk.Now(), UsageInstance, nil)
	if byRes["m1.medium"] != 12 {
		t.Errorf("m1.medium hours = %v, want 12", byRes["m1.medium"])
	}
}

func TestFlavorCatalog(t *testing.T) {
	f, err := FlavorByName("gpu_a100_pcie")
	if err != nil {
		t.Fatal(err)
	}
	if f.GPUs != 4 {
		t.Errorf("unexpected a100 flavor: %+v", f)
	}
	if _, err := FlavorByName("m9.gigantic"); err == nil {
		t.Error("expected error for unknown flavor")
	}
}

// The catalog is built once: a lookup, which the peak-concurrency sweep
// makes per metered record, allocates nothing.
func TestFlavorByNameAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		if _, err := FlavorByName("m1.medium"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("FlavorByName: %v allocs, want 0", got)
	}
}

// id builds the bytes fmt.Sprintf("%s-%06d") gives, for every prefix in
// use, at the edges of the six-digit padding and past it.
func TestIDMatchesSprintf(t *testing.T) {
	c, _ := newTestCloud()
	for _, prefix := range []string{"inst", "net", "subnet", "router", "fip", "sg"} {
		for _, n := range []int{1, 9, 10, 999_999, 1_000_000, math.MaxInt32 + 7} {
			c.nextID = n - 1
			if got, want := c.id(prefix), fmt.Sprintf("%s-%06d", prefix, n); got != want {
				t.Errorf("id(%q) at %d = %q, want %q", prefix, n, got, want)
			}
		}
	}
}

func TestListFilterSorted(t *testing.T) {
	c, _ := newTestCloud()
	for i := 0; i < 5; i++ {
		if _, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small}); err != nil {
			t.Fatal(err)
		}
	}
	all := c.List(nil)
	if len(all) != 5 {
		t.Fatalf("listed %d, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("list not sorted by ID")
		}
	}
	running := c.List(func(i *Instance) bool { return i.Running() })
	if len(running) != 5 {
		t.Errorf("running filter returned %d", len(running))
	}
}

func BenchmarkLaunchDelete(b *testing.B) {
	clk := simclock.New()
	c := New("bench", clk)
	c.AddVMCapacity(50, 48, 192)
	c.CreateProject("p", CourseQuota())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := c.Launch(LaunchSpec{Project: "p", Flavor: M1Small})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Delete(inst.ID); err != nil {
			b.Fatal(err)
		}
	}
}

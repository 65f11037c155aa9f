package cloud

import (
	"errors"
	"testing"

	"repro/internal/simclock"
)

func failTestCloud(t *testing.T) (*Cloud, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	c := New("test", clk)
	c.AddVMCapacity(2, 8, 32)
	c.CreateProject("p", DefaultProjectQuota())
	return c, clk
}

// Regression: an errored instance must stop accruing hours at the
// failure timestamp. Before the fix, HoursAt only honored DeletedAt, so
// an ERROR instance metered forever.
func TestErroredInstanceStopsAccruingHours(t *testing.T) {
	c, clk := failTestCloud(t)
	inst, err := c.Launch(LaunchSpec{Project: "p", Name: "a", Flavor: M1Medium})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(3)
	if err := c.FailHost(inst.Host); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(10)
	if got := inst.HoursAt(clk.Now()); got != 3 {
		t.Fatalf("HoursAt after failure = %v, want 3 (stop at FailedAt)", got)
	}
	// The meter record closed at the failure instant too.
	if got := c.Meter().TotalHours(clk.Now(), nil); got != 3 {
		t.Fatalf("metered hours = %v, want 3", got)
	}
	// Deleting the wreck later does not extend the accrual.
	clk.RunUntil(12)
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	if got := inst.HoursAt(clk.Now()); got != 3 {
		t.Fatalf("HoursAt after delete-of-errored = %v, want 3", got)
	}
}

func TestFailHostReleasesCapacityAndQuota(t *testing.T) {
	c, clk := failTestCloud(t)
	a, err := c.Launch(LaunchSpec{Project: "p", Name: "a", Flavor: M1Medium})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Launch(LaunchSpec{Project: "p", Name: "b", Flavor: M1Medium})
	if err != nil {
		t.Fatal(err)
	}
	if a.Host != b.Host {
		t.Fatalf("first-fit should co-locate: %s vs %s", a.Host, b.Host)
	}
	clk.RunUntil(1)
	if err := c.FailHost(a.Host); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []*Instance{a, b} {
		if inst.State != StateError {
			t.Fatalf("%s state = %v, want ERROR", inst.ID, inst.State)
		}
		if inst.FailedAt != 1 {
			t.Fatalf("%s FailedAt = %v, want 1", inst.ID, inst.FailedAt)
		}
	}
	p, _ := c.GetProject("p")
	if p.Usage.Instances != 0 || p.Usage.Cores != 0 || p.Usage.RAMGB != 0 {
		t.Fatalf("quota not released: %+v", p.Usage)
	}
	// The failed host is avoided; the second host takes new placements.
	inst2, err := c.Launch(LaunchSpec{Project: "p", Name: "c", Flavor: M1Medium})
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Host == a.Host {
		t.Fatalf("placement chose the downed host %s", a.Host)
	}
	// Idempotence / error reporting.
	if err := c.FailHost(a.Host); !errors.Is(err, ErrHostDown) {
		t.Fatalf("double fail = %v, want ErrHostDown", err)
	}
	if err := c.RecoverHost(a.Host); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverHost(a.Host); !errors.Is(err, ErrHostUp) {
		t.Fatalf("double recover = %v, want ErrHostUp", err)
	}
	// Recovered host accepts placements again; former instances stay ERROR.
	host := c.hostLocked(a.Host)
	if !host.Fits(M1Medium) {
		t.Fatal("recovered host should fit again")
	}
	if a.State != StateError {
		t.Fatal("recovery must not resurrect errored instances")
	}
}

func TestFailInstanceReleasesFloatingIPAssociation(t *testing.T) {
	c, _ := failTestCloud(t)
	inst, err := c.Launch(LaunchSpec{Project: "p", Name: "a", Flavor: M1Small})
	if err != nil {
		t.Fatal(err)
	}
	fip, err := c.AllocateFloatingIP("p", Tags{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AssociateFloatingIP(fip.ID, inst.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.FailHost(inst.Host); err != nil {
		t.Fatal(err)
	}
	if inst.FloatingIP != "" {
		t.Fatal("errored instance kept its floating IP")
	}
	// The address is free to re-associate (it keeps metering for the
	// project until released, like a real held-but-unattached IP).
	inst2, err := c.Launch(LaunchSpec{Project: "p", Name: "b", Flavor: M1Small})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AssociateFloatingIP(fip.ID, inst2.ID); err != nil {
		t.Fatalf("re-associate after failure: %v", err)
	}
}

// An address bound to an instance after its host failed is free again
// once the errored instance is deleted.
func TestDeleteErroredInstanceUnbindsFloatingIP(t *testing.T) {
	c, _ := failTestCloud(t)
	inst, err := c.Launch(LaunchSpec{Project: "p", Name: "a", Flavor: M1Small})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailHost(inst.Host); err != nil {
		t.Fatal(err)
	}
	fip, _ := c.AllocateFloatingIP("p", Tags{})
	if err := c.AssociateFloatingIP(fip.ID, inst.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	next, err := c.Launch(LaunchSpec{Project: "p", Name: "b", Flavor: M1Small})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AssociateFloatingIP(fip.ID, next.ID); err != nil {
		t.Errorf("associate the deleted instance's address: %v", err)
	}
}

func TestDeleteErroredInstanceDoesNotDoubleFree(t *testing.T) {
	c, clk := failTestCloud(t)
	inst, err := c.Launch(LaunchSpec{Project: "p", Name: "a", Flavor: M1Medium})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(2)
	if err := c.FailHost(inst.Host); err != nil {
		t.Fatal(err)
	}
	p, _ := c.GetProject("p")
	usageAfterFail := p.Usage
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	if p.Usage != usageAfterFail {
		t.Fatalf("delete of errored instance changed usage: %+v -> %+v", usageAfterFail, p.Usage)
	}
	if inst.State != StateDeleted {
		t.Fatalf("state = %v, want DELETED", inst.State)
	}
	// Host capacity was freed exactly once.
	host := c.hostLocked(inst.Host)
	if host.allocVCPUs != 0 || len(host.instances) != 0 {
		t.Fatalf("host capacity double-freed or leaked: alloc=%d count=%d", host.allocVCPUs, len(host.instances))
	}
}

package cloud

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestEnumStrings(t *testing.T) {
	if ClassVM.String() != "vm" || ClassBareMetal.String() != "baremetal" || ClassEdge.String() != "edge" {
		t.Error("ResourceClass strings wrong")
	}
	if !strings.Contains(ResourceClass(9).String(), "9") {
		t.Error("unknown class string")
	}
	for s, want := range map[InstanceState]string{
		StateBuild: "BUILD", StateActive: "ACTIVE", StateShutoff: "SHUTOFF",
		StateDeleted: "DELETED", StateError: "ERROR",
	} {
		if s.String() != want {
			t.Errorf("state %d = %q", int(s), s.String())
		}
	}
	if !strings.Contains(InstanceState(9).String(), "9") {
		t.Error("unknown state string")
	}
	for k, want := range map[UsageKind]string{
		UsageInstance: "instance", UsageFloatingIP: "floating_ip",
		UsageBlockStorageGB: "block_gb", UsageObjectStorageGB: "object_gb",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q", int(k), k.String())
		}
	}
	if UsageKind(9).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

func TestMissingProjectPaths(t *testing.T) {
	clk := simclock.New()
	c := New("x", clk)
	c.AddVMCapacity(1, 8, 16)
	if _, err := c.Launch(LaunchSpec{Project: "ghost", Flavor: M1Small}); !errors.Is(err, ErrNotFound) {
		t.Errorf("launch err = %v", err)
	}
	if _, err := c.GetProject("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get project err = %v", err)
	}
	if _, err := c.CreateNetwork("ghost", "n"); !errors.Is(err, ErrNotFound) {
		t.Errorf("network err = %v", err)
	}
	if _, err := c.CreateRouter("ghost", "r"); !errors.Is(err, ErrNotFound) {
		t.Errorf("router err = %v", err)
	}
	if _, err := c.AllocateFloatingIP("ghost", Tags{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("fip err = %v", err)
	}
	if _, err := c.CreateSecurityGroup("ghost", "g"); !errors.Is(err, ErrNotFound) {
		t.Errorf("secgroup err = %v", err)
	}
	if _, err := c.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get instance err = %v", err)
	}
	if err := c.ReleaseFloatingIP("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("release fip err = %v", err)
	}
}

func TestNetworkAttachErrors(t *testing.T) {
	c, _ := newTestCloud()
	if _, err := c.CreateSubnet("ghost", "s", "10.0.0.0/24"); !errors.Is(err, ErrNotFound) {
		t.Errorf("subnet on missing network err = %v", err)
	}
	// Launching on a network without subnets fails.
	empty, _ := c.CreateNetwork("class", "empty")
	if _, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small, NetworkID: empty.ID}); !errors.Is(err, ErrNotFound) {
		t.Errorf("launch on subnetless network err = %v", err)
	}
}

func TestAssociateMissingTargets(t *testing.T) {
	c, _ := newTestCloud()
	fip, _ := c.AllocateFloatingIP("class", Tags{})
	if err := c.AssociateFloatingIP(fip.ID, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("associate to missing instance err = %v", err)
	}
	if err := c.AssociateFloatingIP("ghost", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("associate missing fip err = %v", err)
	}
	// Associating to a deleted instance fails too.
	inst, _ := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small})
	_ = c.Delete(inst.ID)
	if err := c.AssociateFloatingIP(fip.ID, inst.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("associate to deleted err = %v", err)
	}
}

func TestSubnetIPAllocationUnique(t *testing.T) {
	c, _ := newTestCloud()
	net, _ := c.CreateNetwork("class", "n")
	_, _ = c.CreateSubnet(net.ID, "s", "192.168.0.0/16")
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small, NetworkID: net.ID})
		if err != nil {
			t.Fatal(err)
		}
		if seen[inst.FixedIP] {
			t.Fatalf("duplicate fixed IP %s at instance %d", inst.FixedIP, i)
		}
		seen[inst.FixedIP] = true
		// Keep the pool small: delete immediately (address uniqueness
		// still must hold since the subnet counter is monotonic).
		_ = c.Delete(inst.ID)
	}
}

func TestMeterOpenCloseIdempotent(t *testing.T) {
	m := &Meter{}
	r := m.Open(UsageInstance, "p", "f", Tags{}, 1, 0)
	m.Close(r, 5)
	m.Close(r, 99) // second close ignored
	if r.Hours(100) != 5 {
		t.Errorf("hours = %v, want 5", r.Hours(100))
	}
	m.Close(nil, 1) // nil-safe
	// Record with End before Start yields zero hours.
	bad := m.Open(UsageInstance, "p", "f", Tags{}, 1, 10)
	m.Close(bad, 3)
	if bad.Hours(100) != 0 {
		t.Errorf("negative interval hours = %v", bad.Hours(100))
	}
}

func TestHostFitsEdgeCases(t *testing.T) {
	bm := NewBareMetalHost("n", GPUV100)
	if bm.Fits(M1Small) {
		t.Error("VM flavor fit a bare-metal host")
	}
	if bm.Fits(GPUA100PCIe) {
		t.Error("wrong node type fit")
	}
	if !bm.Fits(GPUV100) {
		t.Error("matching node type did not fit")
	}
	bm.place(&Instance{ID: "i", Flavor: GPUV100})
	if bm.Fits(GPUV100) {
		t.Error("occupied bare-metal host still fits")
	}
	if len(bm.instances) != 1 {
		t.Errorf("count = %d", len(bm.instances))
	}
	// Evicting an instance that is not placed is a no-op.
	bm.evict(&Instance{ID: "other", Flavor: GPUV100})
	if len(bm.instances) != 1 {
		t.Error("evict of foreign instance changed state")
	}
}

package cloud

import "fmt"

// InstanceState models the OpenStack instance lifecycle subset the course
// exercises.
type InstanceState int

const (
	StateBuild InstanceState = iota
	StateActive
	StateShutoff
	StateDeleted
	StateError
)

func (s InstanceState) String() string {
	switch s {
	case StateBuild:
		return "BUILD"
	case StateActive:
		return "ACTIVE"
	case StateShutoff:
		return "SHUTOFF"
	case StateDeleted:
		return "DELETED"
	case StateError:
		return "ERROR"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// Instance is a provisioned compute resource: VM, bare-metal node, or edge
// device. Billing runs from LaunchedAt until DeletedAt regardless of
// SHUTOFF state, matching on-demand cloud billing for reserved capacity;
// an instance that enters ERROR stops accruing at FailedAt.
type Instance struct {
	ID      string
	Name    string
	Project string
	Flavor  Flavor
	State   InstanceState
	// Spot marks preemptible capacity: billed at the pool's spot price
	// and reclaimable by the market after an advance notice.
	Spot bool

	// Tags attribute the instance's usage; its meter record shares them.
	Tags Tags

	Host       string
	FixedIP    string
	FloatingIP string // address, empty if none

	LaunchedAt float64
	DeletedAt  float64 // -1 while running
	FailedAt   float64 // -1 unless the instance entered ERROR
	// FailReason records why the instance errored (host crash, injected
	// instance fault, ...), for post-mortem correlation with chaos plans.
	FailReason string
}

// Running reports whether the instance still accrues usage.
func (i *Instance) Running() bool { return i.State != StateDeleted && i.State != StateError }

// HoursAt returns accrued instance hours as of time now. Metering stops
// at the earliest terminal event: failure (FailedAt) or deletion
// (DeletedAt) — an errored instance does no useful work and Chameleon
// does not bill for it, so neither do we.
func (i *Instance) HoursAt(now float64) float64 {
	end := i.DeletedAt
	if i.FailedAt >= 0 && (end < 0 || i.FailedAt < end) {
		end = i.FailedAt
	}
	if end < 0 {
		end = now
	}
	if end < i.LaunchedAt {
		return 0
	}
	return end - i.LaunchedAt
}

// Host is a hypervisor (for VMs) or a physical node (bare metal / edge).
// Bare-metal and edge hosts accept exactly one instance whose flavor name
// matches the host's node type, mirroring Chameleon's reservable nodes.
type Host struct {
	Name  string
	Class ResourceClass
	// NodeType constrains bare-metal/edge hosts to one flavor.
	NodeType string

	// Capacity for VM hosts. Overcommit is applied by the placement
	// policy, not stored here.
	VCPUs int
	RAMGB int

	// Down marks a crashed host (set by Cloud.FailHost). Down hosts
	// accept no placements until RecoverHost brings them back.
	Down bool

	allocVCPUs int
	allocRAMGB int
	instances  map[string]*Instance
}

// NewVMHost returns a hypervisor with the given capacity.
func NewVMHost(name string, vcpus, ramGB int) *Host {
	return &Host{Name: name, Class: ClassVM, VCPUs: vcpus, RAMGB: ramGB,
		instances: map[string]*Instance{}}
}

// NewBareMetalHost returns a reservable physical node of the given type.
func NewBareMetalHost(name string, nodeType Flavor) *Host {
	return &Host{Name: name, Class: nodeType.Class, NodeType: nodeType.Name,
		VCPUs: nodeType.VCPUs, RAMGB: nodeType.RAMGB,
		instances: map[string]*Instance{}}
}

// Fits reports whether the host can accept an instance of flavor f.
// Down hosts never fit, so placement — first-fit here and the sched
// package's packers — avoids crashed hardware without knowing about
// failures.
func (h *Host) Fits(f Flavor) bool {
	if h.Down {
		return false
	}
	if h.Class != f.Class {
		return false
	}
	if h.Class != ClassVM {
		return h.NodeType == f.Name && len(h.instances) == 0
	}
	return h.allocVCPUs+f.VCPUs <= h.VCPUs && h.allocRAMGB+f.RAMGB <= h.RAMGB
}

func (h *Host) place(i *Instance) {
	h.allocVCPUs += i.Flavor.VCPUs
	h.allocRAMGB += i.Flavor.RAMGB
	h.instances[i.ID] = i
	i.Host = h.Name
}

func (h *Host) evict(i *Instance) {
	if _, ok := h.instances[i.ID]; !ok {
		return
	}
	h.allocVCPUs -= i.Flavor.VCPUs
	h.allocRAMGB -= i.Flavor.RAMGB
	delete(h.instances, i.ID)
}

// firstFit returns the first host with room for f, or nil: the
// OpenStack default-ish placement every launch uses.
func firstFit(hosts []*Host, f Flavor) *Host {
	for _, h := range hosts {
		if h.Fits(f) {
			return h
		}
	}
	return nil
}

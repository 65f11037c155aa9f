// Package cloud implements an OpenStack-compatible infrastructure
// simulator modeled on the Chameleon Cloud testbed used by the paper: VM
// flavors and bare-metal node types, hosts with finite capacity, instance
// lifecycle with usage metering, tenant projects with quotas, virtual
// networking (networks, subnets, routers, floating IPs, security groups),
// and pluggable placement.
//
// The simulator is driven by a simclock.Clock, so instance-hours are exact
// functions of virtual launch/delete times; the studentsim package
// generates lifecycle events and the cost package prices the metered
// usage.
package cloud

import "fmt"

// ResourceClass distinguishes how a compute resource is provisioned, which
// determines its lifecycle semantics in the paper's analysis: on-demand
// VMs persist until explicitly deleted, while bare-metal and edge nodes
// are lease-backed and terminate automatically.
type ResourceClass int

const (
	// ClassVM is an on-demand KVM virtual machine (Chameleon KVM@TACC).
	ClassVM ResourceClass = iota
	// ClassBareMetal is a reservable bare-metal node (CHI@TACC/CHI@UC).
	ClassBareMetal
	// ClassEdge is a reservable low-resource edge device (CHI@Edge).
	ClassEdge
)

func (c ResourceClass) String() string {
	switch c {
	case ClassVM:
		return "vm"
	case ClassBareMetal:
		return "baremetal"
	case ClassEdge:
		return "edge"
	default:
		return fmt.Sprintf("ResourceClass(%d)", int(c))
	}
}

// Flavor describes the virtual hardware of a compute resource. VM flavors
// (m1.small, ...) and bare-metal node types (gpu_a100_pcie, ...) share
// this type; Class tells them apart.
type Flavor struct {
	Name    string
	Class   ResourceClass
	VCPUs   int
	RAMGB   int
	DiskGB  int
	GPUs    int
	GPUType string // e.g. "A100-80GB", "V100", "MI100", "P100", "" for none

	// GPUMemoryGB is per-GPU memory; used by the training memory planner.
	GPUMemoryGB int
	// ComputeCapability is the NVIDIA CUDA compute capability (e.g. 8.0
	// for A100). bfloat16 requires >= 8.0; zero for non-NVIDIA hardware.
	ComputeCapability float64
}

// Chameleon flavor and node-type catalog. Names follow the paper's Table 1.
// VM flavor shapes come from the lab descriptions in Section 3 (m1.medium
// = 2 vCPU / 4 GB, m1.large = 4 vCPU / 8 GB); bare-metal node shapes are
// modeled on the corresponding Chameleon hardware.
var (
	M1Small  = Flavor{Name: "m1.small", Class: ClassVM, VCPUs: 1, RAMGB: 2, DiskGB: 20}
	M1Medium = Flavor{Name: "m1.medium", Class: ClassVM, VCPUs: 2, RAMGB: 4, DiskGB: 40}
	M1Large  = Flavor{Name: "m1.large", Class: ClassVM, VCPUs: 4, RAMGB: 8, DiskGB: 40}
	M1XLarge = Flavor{Name: "m1.xlarge", Class: ClassVM, VCPUs: 8, RAMGB: 16, DiskGB: 40}

	GPUA100PCIe = Flavor{Name: "gpu_a100_pcie", Class: ClassBareMetal, VCPUs: 64, RAMGB: 512, DiskGB: 1000,
		GPUs: 4, GPUType: "A100-80GB", GPUMemoryGB: 80, ComputeCapability: 8.0}
	GPUV100 = Flavor{Name: "gpu_v100", Class: ClassBareMetal, VCPUs: 48, RAMGB: 384, DiskGB: 1000,
		GPUs: 4, GPUType: "V100", GPUMemoryGB: 32, ComputeCapability: 7.0}
	ComputeGigaIO = Flavor{Name: "compute_gigaio", Class: ClassBareMetal, VCPUs: 32, RAMGB: 256, DiskGB: 500,
		GPUs: 1, GPUType: "A100-80GB", GPUMemoryGB: 80, ComputeCapability: 8.0}
	ComputeLiqid = Flavor{Name: "compute_liqid", Class: ClassBareMetal, VCPUs: 32, RAMGB: 256, DiskGB: 500,
		GPUs: 1, GPUType: "A100-40GB", GPUMemoryGB: 40, ComputeCapability: 8.0}
	ComputeLiqid2 = Flavor{Name: "compute_liqid_2", Class: ClassBareMetal, VCPUs: 32, RAMGB: 256, DiskGB: 500,
		GPUs: 2, GPUType: "A100-40GB", GPUMemoryGB: 40, ComputeCapability: 8.0}
	GPUMI100 = Flavor{Name: "gpu_mi100", Class: ClassBareMetal, VCPUs: 48, RAMGB: 256, DiskGB: 500,
		GPUs: 2, GPUType: "MI100", GPUMemoryGB: 32}
	GPUP100 = Flavor{Name: "gpu_p100", Class: ClassBareMetal, VCPUs: 24, RAMGB: 128, DiskGB: 500,
		GPUs: 2, GPUType: "P100", GPUMemoryGB: 16, ComputeCapability: 6.0}
	ComputeHaswell = Flavor{Name: "compute_haswell", Class: ClassBareMetal, VCPUs: 48, RAMGB: 128, DiskGB: 250}

	RaspberryPi5 = Flavor{Name: "raspberrypi5", Class: ClassEdge, VCPUs: 4, RAMGB: 8, DiskGB: 64}
)

// flavors is the catalog keyed by name, built once for FlavorByName.
var flavors = func() map[string]Flavor {
	m := map[string]Flavor{}
	for _, f := range []Flavor{
		M1Small, M1Medium, M1Large, M1XLarge,
		GPUA100PCIe, GPUV100, ComputeGigaIO, ComputeLiqid, ComputeLiqid2,
		GPUMI100, GPUP100, ComputeHaswell, RaspberryPi5,
	} {
		m[f.Name] = f
	}
	return m
}()

// FlavorByName looks up a catalog flavor for CLIs and the course
// definition.
func FlavorByName(name string) (Flavor, error) {
	f, ok := flavors[name]
	if !ok {
		return Flavor{}, fmt.Errorf("cloud: unknown flavor %q", name)
	}
	return f, nil
}

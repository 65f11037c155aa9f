// Package cost implements the paper's commercial-cloud cost model: the
// cheapest AWS/GCP on-demand instance equivalent to each Chameleon
// resource, floating-IP and storage pricing, and aggregation to
// per-assignment (Table 1), per-student (Fig. 2), and project (§5)
// dollar totals.
//
// Rates are July-2025 on-demand snapshots for us-east-1 (AWS) and
// us-central1 (GCP). Several rows back-solve exactly to public prices
// (t3.micro $0.0104, t3.medium $0.0416, t3.xlarge $0.1664, e2-small
// $0.01675, e2-medium $0.0335, a2-highgpu-4g ≈$14.70, a2-ultragpu-1g
// ≈$5.07) with floating IPs at $0.005/h on both providers; the remaining
// GPU rows use the per-row implied rates recovered from Table 1, with
// the nearest instance family named. DESIGN.md §4 documents the
// derivation.
package cost

import (
	"errors"
	"fmt"
	"sort"
)

// Provider selects a commercial cloud.
type Provider int

const (
	AWS Provider = iota
	GCP
)

func (p Provider) String() string {
	if p == AWS {
		return "AWS"
	}
	return "GCP"
}

// FloatingIPRate is the public-IPv4 hourly charge on both providers.
const FloatingIPRate = 0.005

// Monthly per-GB storage rates (durable volumes and object storage).
var (
	blockGBMonth  = map[Provider]float64{AWS: 0.08, GCP: 0.17}
	objectGBMonth = map[Provider]float64{AWS: 0.023, GCP: 0.020}
)

// BlockGBMonthRate returns the per-GB-month block storage rate.
func BlockGBMonthRate(p Provider) float64 { return blockGBMonth[p] }

// ObjectGBMonthRate returns the per-GB-month object storage rate.
func ObjectGBMonthRate(p Provider) float64 { return objectGBMonth[p] }

// Rate names a cloud instance and its hourly price.
type Rate struct {
	Instance string
	PerHour  float64
}

// Equivalent pairs the cheapest AWS and GCP matches for one resource.
type Equivalent struct {
	AWS Rate
	GCP Rate
}

// Rate returns the rate for a provider.
func (e Equivalent) Rate(p Provider) Rate {
	if p == AWS {
		return e.AWS
	}
	return e.GCP
}

// ErrNoEquivalent is returned for resources with no commercial match
// (the paper excludes Raspberry Pi rows for the same reason).
var ErrNoEquivalent = errors.New("cost: no commercial-cloud equivalent")

// labEquivalents maps course row IDs (course.Row.ID) to their cheapest
// equivalents. Rates are per instance-hour; rows with multiple VMs
// multiply by VM count at aggregation time via instance-hours.
var labEquivalents = map[string]Equivalent{
	"1":               {AWS: Rate{"t3.micro", 0.0104}, GCP: Rate{"e2-small", 0.01675}},
	"2":               {AWS: Rate{"t3.medium", 0.0416}, GCP: Rate{"n2-standard-2", 0.1005}},
	"3":               {AWS: Rate{"t3.medium", 0.0416}, GCP: Rate{"n2-standard-2", 0.1005}},
	"4-multi-a100":    {AWS: Rate{"p4d 4xA100 share", 17.92}, GCP: Rate{"a2-highgpu-4g", 14.70}},
	"4-multi-v100":    {AWS: Rate{"p4d 4xA100 share", 17.92}, GCP: Rate{"a2-highgpu-4g", 14.70}},
	"4-single":        {AWS: Rate{"g6e A100-80 class", 3.307}, GCP: Rate{"a2-ultragpu-1g", 5.07}},
	"5-multi-liqid2":  {AWS: Rate{"g5 2-GPU class", 4.613}, GCP: Rate{"g2-standard-24", 2.00}},
	"5-multi-mi100":   {AWS: Rate{"g5 2-GPU class", 4.613}, GCP: Rate{"g2-standard-24", 2.00}},
	"5-single-gigaio": {AWS: Rate{"g5.2xlarge class", 1.458}, GCP: Rate{"g2-standard-16", 1.145}},
	"5-single-liqid":  {AWS: Rate{"g5.2xlarge class", 1.458}, GCP: Rate{"g2-standard-16", 1.145}},
	"6-opt-gigaio":    {AWS: Rate{"g4dn.2xlarge class", 0.885}, GCP: Rate{"g2-standard-4", 0.711}},
	"6-opt-liqid":     {AWS: Rate{"g4dn.2xlarge class", 0.885}, GCP: Rate{"g2-standard-4", 0.711}},
	"6-system":        {AWS: Rate{"p3 2xGPU class", 5.061}, GCP: Rate{"g2-standard-24", 2.00}},
	"7":               {AWS: Rate{"t3.medium", 0.0416}, GCP: Rate{"e2-medium", 0.0335}},
	"8":               {AWS: Rate{"t3.xlarge", 0.1664}, GCP: Rate{"e2-standard-2", 0.067}},
}

// errEdgeRow is the Raspberry Pi row's ErrNoEquivalent, built once:
// LabRowCost asks for it every time it prices that row and must not
// allocate.
var errEdgeRow = fmt.Errorf("%w: raspberrypi5 (row 6-edge)", ErrNoEquivalent)

// LabEquivalent returns the commercial equivalent for a course row.
// "6-edge" (Raspberry Pi 5) has none, and this is the one place that
// says so: every price, table and report asks for ErrNoEquivalent.
func LabEquivalent(rowID string) (Equivalent, error) {
	if rowID == "6-edge" {
		return Equivalent{}, errEdgeRow
	}
	e, ok := labEquivalents[rowID]
	if !ok {
		return Equivalent{}, fmt.Errorf("cost: unknown lab row %q", rowID)
	}
	return e, nil
}

// LabUsage is metered consumption for one Table-1 row.
type LabUsage struct {
	RowID         string
	InstanceHours float64
	FIPHours      float64
}

// LabRowCost prices one row on a provider: instance hours × equivalent
// rate + floating-IP hours. A row with no commercial equivalent prices
// at zero (excluded, per the paper).
func LabRowCost(u LabUsage, p Provider) (float64, error) {
	e, err := LabEquivalent(u.RowID)
	if errors.Is(err, ErrNoEquivalent) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return u.InstanceHours*e.Rate(p).PerHour + u.FIPHours*FloatingIPRate, nil
}

// LabCost sums LabRowCost over usages.
func LabCost(usages []LabUsage, p Provider) (float64, error) {
	var total float64
	for _, u := range usages {
		c, err := LabRowCost(u, p)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Project-phase instance classes (Fig. 3 categories) and their cheapest
// equivalents. VM classes reuse the Chameleon flavor names; GPU classes
// are capability buckets since projects chose their own hardware.
var projectEquivalents = map[string]Equivalent{
	"m1.small":   {AWS: Rate{"t3.micro", 0.0104}, GCP: Rate{"e2-small", 0.01675}},
	"m1.medium":  {AWS: Rate{"t3.medium", 0.0416}, GCP: Rate{"e2-medium", 0.0335}},
	"m1.large":   {AWS: Rate{"t3.xlarge", 0.1664}, GCP: Rate{"e2-standard-4", 0.134}},
	"m1.xlarge":  {AWS: Rate{"t3.2xlarge", 0.3328}, GCP: Rate{"e2-standard-8", 0.268}},
	"gpu-small":  {AWS: Rate{"g4dn.xlarge", 0.526}, GCP: Rate{"g2-standard-4", 0.7087}},
	"gpu-medium": {AWS: Rate{"g5.2xlarge", 1.212}, GCP: Rate{"g2-standard-12", 1.00}},
	"gpu-a100":   {AWS: Rate{"g6e A100-80 class", 3.307}, GCP: Rate{"a2-ultragpu-1g", 5.07}},
	"gpu-multi":  {AWS: Rate{"g5 2-GPU class", 4.613}, GCP: Rate{"g2-standard-24", 2.00}},
	"baremetal":  {AWS: Rate{"c5.12xlarge", 2.04}, GCP: Rate{"n2-standard-48", 2.33}},
}

// ProjectEquivalent returns the equivalent for a project instance class.
func ProjectEquivalent(class string) (Equivalent, error) {
	e, ok := projectEquivalents[class]
	if !ok {
		return Equivalent{}, fmt.Errorf("cost: unknown project class %q", class)
	}
	return e, nil
}

// ProjectUsage aggregates the open-ended project phase (§5, Fig. 3).
type ProjectUsage struct {
	// VMHours and GPUHours map project instance classes to hours.
	VMHours  map[string]float64
	GPUHours map[string]float64
	// BMHours is bare-metal-without-GPU time (large data processing).
	BMHours   float64
	EdgeHours float64
	// Storage is billed by GB-month over the project period.
	BlockGBMonths  float64
	ObjectGBMonths float64
	FIPHours       float64
}

// TotalVMHours sums VM hours across classes.
func (u ProjectUsage) TotalVMHours() float64 { return sum(u.VMHours) }

// TotalGPUHours sums GPU hours across classes.
func (u ProjectUsage) TotalGPUHours() float64 { return sum(u.GPUHours) }

func sum(m map[string]float64) float64 {
	// Sorted iteration: float addition is not associative, and these
	// totals feed reports that must be byte-identical across runs.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += m[k]
	}
	return t
}

// ProjectCost prices the project phase on a provider.
func ProjectCost(u ProjectUsage, p Provider) (float64, error) {
	var total float64
	keys := make([]string, 0, len(u.VMHours))
	for class := range u.VMHours {
		keys = append(keys, class)
	}
	sort.Strings(keys)
	for _, class := range keys {
		hours := u.VMHours[class]
		e, err := ProjectEquivalent(class)
		if err != nil {
			return 0, err
		}
		total += hours * e.Rate(p).PerHour
	}
	keys2 := make([]string, 0, len(u.GPUHours))
	for class := range u.GPUHours {
		keys2 = append(keys2, class)
	}
	sort.Strings(keys2)
	for _, class := range keys2 {
		hours := u.GPUHours[class]
		e, err := ProjectEquivalent(class)
		if err != nil {
			return 0, err
		}
		total += hours * e.Rate(p).PerHour
	}
	bm, err := ProjectEquivalent("baremetal")
	if err != nil {
		return 0, err
	}
	total += u.BMHours * bm.Rate(p).PerHour
	// Edge devices have no commercial equivalent: excluded, like the lab
	// analysis.
	total += u.BlockGBMonths * blockGBMonth[p]
	total += u.ObjectGBMonths * objectGBMonth[p]
	total += u.FIPHours * FloatingIPRate
	return total, nil
}

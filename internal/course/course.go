// Package course encodes the structure of the NYU *Machine Learning
// Systems Engineering and Operations* course as data: units, lab
// assignments, their infrastructure requirements and expected durations
// (paper §3), and the per-assignment calibration targets from Table 1
// that the usage simulator reproduces.
package course

import "repro/internal/cloud"

// Enrollment is the Spring-2025 head count the paper reports.
const Enrollment = 191

// HoursPerWeek converts course weeks to simulated hours.
const HoursPerWeek = 168.0

// Row is one Table-1 row: a (lab assignment, instance type) pair with its
// provisioning class, expected per-student engagement, and the actual
// per-student usage the paper measured (Table 1 hours ÷ 191 students).
//
// Expected* fields come from the §3 lab descriptions; TargetHours is the
// calibration target the student simulator's duration distributions are
// tuned to reproduce in expectation.
type Row struct {
	// ID is the Table-1 row label, e.g. "4-multi-a100".
	ID string
	// Assignment is the Table-1 assignment name.
	Assignment string
	Unit       int
	Flavor     cloud.Flavor
	// VMsPerStudent is how many instances one deployment uses (3 for the
	// Kubernetes labs).
	VMsPerStudent int
	// ExpectedHours is the §3 expected duration of the lab's use of this
	// instance type, per student (infrastructure perspective).
	ExpectedHours float64
	// SlotHours is the reservation slot length for bare-metal/edge rows
	// (0 for on-demand VM rows).
	SlotHours float64
	// TargetHours is Table 1's instance hours ÷ enrollment: the actual
	// mean per-student usage to calibrate against.
	TargetHours float64
	// TargetFIPHours is Table 1's floating-IP hours ÷ enrollment.
	TargetFIPHours float64
	// Week is the course week the lab runs in (1-based), for scheduling
	// launches and staff holds on the simulated calendar.
	Week int
	// Share is the fraction of students using this row when an
	// assignment splits across node types (rows of one assignment sum
	// to 1); 1 for single-row assignments.
	Share float64
}

// Reserved reports whether the row runs on lease-backed (auto-
// terminating) capacity.
func (r Row) Reserved() bool { return r.Flavor.Class != cloud.ClassVM }

// Rows returns the full Table-1 catalog. Target values are the paper's
// Table 1 divided by Enrollment; expected values follow §3 (lab 3 uses
// the 7–8 h "infrastructure perspective" midpoint; unit 4/5 expectations
// are per part).
func Rows() []Row {
	e := float64(Enrollment)
	return []Row{
		{ID: "1", Assignment: "1. Hello, Chameleon", Unit: 1, Flavor: cloud.M1Small,
			VMsPerStudent: 1, ExpectedHours: 1.5, TargetHours: 2620 / e, TargetFIPHours: 2620 / e,
			Week: 1, Share: 1},
		{ID: "2", Assignment: "2. Cloud Computing", Unit: 2, Flavor: cloud.M1Medium,
			VMsPerStudent: 3, ExpectedHours: 5, TargetHours: 52332 / e, TargetFIPHours: 17444 / e,
			Week: 2, Share: 1},
		{ID: "3", Assignment: "3. MLOps", Unit: 3, Flavor: cloud.M1Medium,
			VMsPerStudent: 3, ExpectedHours: 7.5, TargetHours: 32344 / e, TargetFIPHours: 10781 / e,
			Week: 3, Share: 1},
		{ID: "4-multi-a100", Assignment: "4. Train at Scale (Multi GPU)", Unit: 4, Flavor: cloud.GPUA100PCIe,
			VMsPerStudent: 1, ExpectedHours: 2, SlotHours: 2, TargetHours: 167 / e, TargetFIPHours: 167 / e,
			Week: 4, Share: 167.0 / 377},
		{ID: "4-multi-v100", Assignment: "4. Train at Scale (Multi GPU)", Unit: 4, Flavor: cloud.GPUV100,
			VMsPerStudent: 1, ExpectedHours: 2, SlotHours: 2, TargetHours: 210 / e, TargetFIPHours: 210 / e,
			Week: 4, Share: 210.0 / 377},
		{ID: "4-single", Assignment: "4. Train at Scale (One GPU)", Unit: 4, Flavor: cloud.ComputeGigaIO,
			VMsPerStudent: 1, ExpectedHours: 2, SlotHours: 2, TargetHours: 218 / e, TargetFIPHours: 218 / e,
			Week: 4, Share: 1},
		{ID: "5-multi-liqid2", Assignment: "5. Training in a Cluster (Multi GPU)", Unit: 5, Flavor: cloud.ComputeLiqid2,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 330 / e, TargetFIPHours: 330 / e,
			Week: 5, Share: 330.0 / 1332},
		{ID: "5-multi-mi100", Assignment: "5. Training in a Cluster (Multi GPU)", Unit: 5, Flavor: cloud.GPUMI100,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 1002 / e, TargetFIPHours: 1002 / e,
			Week: 5, Share: 1002.0 / 1332},
		{ID: "5-single-gigaio", Assignment: "5. Experiment Tracking (One GPU)", Unit: 5, Flavor: cloud.ComputeGigaIO,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 28 / e, TargetFIPHours: 28 / e,
			Week: 5, Share: 28.0 / 158},
		{ID: "5-single-liqid", Assignment: "5. Experiment Tracking (One GPU)", Unit: 5, Flavor: cloud.ComputeLiqid,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 130 / e, TargetFIPHours: 130 / e,
			Week: 5, Share: 130.0 / 158},
		{ID: "6-opt-gigaio", Assignment: "6. Model Serving Optimizations", Unit: 6, Flavor: cloud.ComputeGigaIO,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 215 / e, TargetFIPHours: 215 / e,
			Week: 6, Share: 215.0 / 675},
		{ID: "6-opt-liqid", Assignment: "6. Model Serving Optimizations", Unit: 6, Flavor: cloud.ComputeLiqid,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 460 / e, TargetFIPHours: 460 / e,
			Week: 6, Share: 460.0 / 675},
		{ID: "6-edge", Assignment: "6. Serving from the Edge", Unit: 6, Flavor: cloud.RaspberryPi5,
			VMsPerStudent: 1, ExpectedHours: 2, SlotHours: 2, TargetHours: 492 / e, TargetFIPHours: 492 / e,
			Week: 6, Share: 1},
		{ID: "6-system", Assignment: "6. System Serving Optimizations", Unit: 6, Flavor: cloud.GPUP100,
			VMsPerStudent: 1, ExpectedHours: 3, SlotHours: 3, TargetHours: 707 / e, TargetFIPHours: 707 / e,
			Week: 6, Share: 1},
		{ID: "7", Assignment: "7. Monitoring and Evaluation", Unit: 7, Flavor: cloud.M1Medium,
			VMsPerStudent: 1, ExpectedHours: 6, TargetHours: 9889 / e, TargetFIPHours: 9889 / e,
			Week: 7, Share: 1},
		{ID: "8", Assignment: "8. Persistent Data", Unit: 8, Flavor: cloud.M1Large,
			VMsPerStudent: 1, ExpectedHours: 3, TargetHours: 8693 / e, TargetFIPHours: 8693 / e,
			Week: 8, Share: 1},
	}
}

// PaperTotals holds §5's headline ground truth for verification.
type PaperTotals struct {
	LabInstanceHours     float64
	LabFIPHours          float64
	ProjectVMHours       float64
	ProjectGPUHours      float64
	ProjectBMHours       float64
	ProjectEdgeHours     float64
	ProjectBlockTB       float64
	ProjectObjectGB      float64
	LabCostAWS           float64
	LabCostGCP           float64
	LabCostPerStudentAWS float64
	LabCostPerStudentGCP float64
	ExpectedLabCostAWS   float64
	ExpectedLabCostGCP   float64
	MaxStudentAWS        float64
	MaxStudentGCP        float64
	ExceedFracAWS        float64
	ExceedFracGCP        float64
	ProjectCostAWS       float64
	ProjectCostGCP       float64
}

// Paper returns the published numbers from §5 and Table 1.
func Paper() PaperTotals {
	return PaperTotals{
		LabInstanceHours:     109837,
		LabFIPHours:          53387,
		ProjectVMHours:       70259,
		ProjectGPUHours:      5446,
		ProjectBMHours:       975,
		ProjectEdgeHours:     175,
		ProjectBlockTB:       9,
		ProjectObjectGB:      1541,
		LabCostAWS:           23698,
		LabCostGCP:           21119,
		LabCostPerStudentAWS: 124,
		LabCostPerStudentGCP: 111,
		ExpectedLabCostAWS:   79.80,
		ExpectedLabCostGCP:   58.85,
		MaxStudentAWS:        665,
		MaxStudentGCP:        590,
		ExceedFracAWS:        0.75,
		ExceedFracGCP:        0.73,
		ProjectCostAWS:       25889,
		ProjectCostGCP:       26218,
	}
}

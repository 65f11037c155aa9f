// Package core is the top-level facade of the reproduction: it wires the
// course catalog, the student-behavior simulator, the IaaS substrate, and
// the cost model into single-call experiments — the full course run
// behind Table 1 and Figs. 1–3, plus capacity-planning utilities (peak
// concurrency vs quota, reservation calendars) that a course operator
// would actually use.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/lease"
	"repro/internal/studentsim"
)

// Planner configures a course simulation.
type Planner struct {
	// Students defaults to the paper's 191.
	Students int
	// Seed defaults to 1 (the seed used for EXPERIMENTS.md).
	Seed uint64
	// Groups defaults to 52 project groups.
	Groups int
}

// Summary is a complete simulated course offering with its commercial
// cost translation.
type Summary struct {
	Labs     *studentsim.Result
	Projects *studentsim.ProjectResult

	LabInstanceHours float64
	LabFIPHours      float64

	LabCostAWS     float64
	LabCostGCP     float64
	ProjectCostAWS float64
	ProjectCostGCP float64

	// PerStudentAWS/GCP include labs and projects — the paper's ≈$250.
	PerStudentAWS float64
	PerStudentGCP float64

	Fig2AWS studentsim.Fig2Stats
	Fig2GCP studentsim.Fig2Stats
}

// TotalHours returns lab + project compute hours (the paper's 186,692).
func (s *Summary) TotalHours() float64 {
	return s.LabInstanceHours +
		s.Projects.Usage.TotalVMHours() + s.Projects.Usage.TotalGPUHours() +
		s.Projects.Usage.BMHours + s.Projects.Usage.EdgeHours
}

// Run simulates the full course and prices it.
func (p Planner) Run() (*Summary, error) {
	labs, err := studentsim.SimulateLabs(studentsim.Config{Students: p.Students, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	projects := studentsim.SimulateProjects(studentsim.ProjectConfig{Groups: p.Groups, Seed: p.Seed})

	s := &Summary{
		Labs:             labs,
		Projects:         projects,
		LabInstanceHours: labs.TotalInstanceHours(),
		LabFIPHours:      labs.TotalFIPHours(),
	}
	var usages []cost.LabUsage
	for _, row := range course.Rows() {
		usages = append(usages, cost.LabUsage{
			RowID:         row.ID,
			InstanceHours: labs.RowInstanceHours[row.ID],
			FIPHours:      labs.RowFIPHours[row.ID],
		})
	}
	if s.LabCostAWS, err = cost.LabCost(usages, cost.AWS); err != nil {
		return nil, err
	}
	if s.LabCostGCP, err = cost.LabCost(usages, cost.GCP); err != nil {
		return nil, err
	}
	if s.ProjectCostAWS, err = cost.ProjectCost(projects.Usage, cost.AWS); err != nil {
		return nil, err
	}
	if s.ProjectCostGCP, err = cost.ProjectCost(projects.Usage, cost.GCP); err != nil {
		return nil, err
	}
	n := float64(labs.Config.Students)
	s.PerStudentAWS = (s.LabCostAWS + s.ProjectCostAWS) / n
	s.PerStudentGCP = (s.LabCostGCP + s.ProjectCostGCP) / n

	paper := course.Paper()
	if s.Fig2AWS, err = studentsim.Fig2(labs, cost.AWS, paper.ExpectedLabCostAWS); err != nil {
		return nil, err
	}
	if s.Fig2GCP, err = studentsim.Fig2(labs, cost.GCP, paper.ExpectedLabCostGCP); err != nil {
		return nil, err
	}
	return s, nil
}

// PeakUsage reports the maximum simultaneous consumption observed during
// a lab simulation, for checking against a site quota.
type PeakUsage struct {
	Instances   int
	Cores       int
	RAMGB       int
	FloatingIPs int
}

// PeakConcurrency sweeps the meter's instance records and returns the
// peak simultaneous usage of the on-demand VM project (the dimension the
// paper requested a quota increase for).
func PeakConcurrency(labs *studentsim.Result) PeakUsage {
	type event struct {
		t     float64
		insts int
		cores int
		ram   int
		fips  int
	}
	// A counting pass sizes events once; the fill pass may skip a record
	// of an unknown flavor.
	n := 0
	labs.Cloud.Meter().Each(func(rec *cloud.UsageRecord) {
		if rec.Project == "course" && (rec.Kind == cloud.UsageInstance || rec.Kind == cloud.UsageFloatingIP) {
			n += 2
		}
	})
	events := make([]event, 0, n)
	now := labs.Clock.Now()
	labs.Cloud.Meter().Each(func(rec *cloud.UsageRecord) {
		if rec.Project != "course" {
			return // quota applies to the KVM site project only
		}
		end := rec.End
		if end < 0 {
			end = now
		}
		switch rec.Kind {
		case cloud.UsageInstance:
			f, err := cloud.FlavorByName(rec.Resource)
			if err != nil {
				return
			}
			events = append(events,
				event{t: rec.Start, insts: 1, cores: f.VCPUs, ram: f.RAMGB},
				event{t: end, insts: -1, cores: -f.VCPUs, ram: -f.RAMGB})
		case cloud.UsageFloatingIP:
			events = append(events, event{t: rec.Start, fips: 1}, event{t: end, fips: -1})
		}
	})
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		// Releases before acquisitions at the same instant. An event
		// moves instances or floating IPs, never both, so the sum's sign
		// tells them apart.
		return events[i].insts+events[i].fips < events[j].insts+events[j].fips
	})
	var cur, peak PeakUsage
	for _, e := range events {
		cur.Instances += e.insts
		cur.Cores += e.cores
		cur.RAMGB += e.ram
		cur.FloatingIPs += e.fips
		if cur.Instances > peak.Instances {
			peak.Instances = cur.Instances
		}
		if cur.Cores > peak.Cores {
			peak.Cores = cur.Cores
		}
		if cur.RAMGB > peak.RAMGB {
			peak.RAMGB = cur.RAMGB
		}
		if cur.FloatingIPs > peak.FloatingIPs {
			peak.FloatingIPs = cur.FloatingIPs
		}
	}
	return peak
}

// QuotaCheck compares peak concurrency against a quota and returns a
// human-readable verdict per dimension. The platform enforces the quota,
// so a run checked against the quota it ran under can reach a limit but
// never pass it: a peak equal to the limit reads AT LIMIT (the quota
// was binding, and launches past it waited), and EXCEEDED is left for a
// run checked against another quota.
func QuotaCheck(peak PeakUsage, q cloud.Quota) []string {
	dim := func(name string, used, limit int) string {
		if limit == cloud.Unlimited {
			return fmt.Sprintf("%-13s peak %5d / unlimited", name, used)
		}
		verdict := "OK"
		switch {
		case used > limit:
			verdict = "EXCEEDED"
		case used == limit:
			verdict = "AT LIMIT"
		}
		return fmt.Sprintf("%-13s peak %5d / %5d  %s (%.0f%%)",
			name, used, limit, verdict, 100*float64(used)/float64(limit))
	}
	return []string{
		dim("instances", peak.Instances, q.Instances),
		dim("cores", peak.Cores, q.Cores),
		dim("ram_gb", peak.RAMGB, q.RAMGB),
		dim("floating_ips", peak.FloatingIPs, q.FloatingIPs),
	}
}

// ReservationPlan is one node type's weekly staffing arrangement.
type ReservationPlan struct {
	NodeType    string
	Week        int
	Nodes       int
	DemandHours float64
	Utilization float64 // demand / (nodes × 168h)
}

// PlanReservations computes, for an enrollment of n, the per-week GPU
// pool sizes needed to absorb each reserved lab's demand — the advance
// arrangement the paper describes making with the testbed operators.
func PlanReservations(n int) []ReservationPlan {
	var out []ReservationPlan
	for _, row := range course.Rows() {
		if !row.Reserved() {
			continue
		}
		demand := row.TargetHours * float64(n)
		nodes := lease.PlanNodes(demand)
		out = append(out, ReservationPlan{
			NodeType:    row.Flavor.Name,
			Week:        row.Week,
			Nodes:       nodes,
			DemandHours: demand,
			Utilization: demand / (float64(nodes) * course.HoursPerWeek),
		})
	}
	return out
}

// RecommendQuota simulates a course at the given enrollment and returns
// a site quota sized to its peak concurrency plus headroom — the number
// an instructor would put in their testbed allocation request. The
// headroom multiplier covers seed-to-seed variation in peak load
// (deadline clustering); 1.5 is comfortable, below 1.2 is risky.
func RecommendQuota(students int, headroom float64) (cloud.Quota, PeakUsage, error) {
	if headroom <= 0 {
		headroom = 1.5
	}
	labs, err := studentsim.SimulateLabs(studentsim.Config{Students: students, Seed: 1})
	if err != nil {
		return cloud.Quota{}, PeakUsage{}, err
	}
	peak := PeakConcurrency(labs)
	scale := func(v int) int { return int(math.Ceil(float64(v) * headroom)) }
	q := cloud.Quota{
		Instances:      scale(peak.Instances),
		Cores:          scale(peak.Cores),
		RAMGB:          scale(peak.RAMGB),
		FloatingIPs:    scale(peak.FloatingIPs),
		Networks:       cloud.Unlimited,
		Routers:        scale(peak.Instances / 3), // one router per cluster
		SecurityGroups: 100,
		Volumes:        scale(students),
		BlockStorageGB: scale(students * 10),
	}
	return q, peak, nil
}

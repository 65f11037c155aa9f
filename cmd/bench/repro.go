package main

import (
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/report"
	"repro/internal/studentsim"
	"repro/internal/support"
)

// repro is the default coursesim pipeline: simulate and price the course,
// render Table 1 and Figs. 1–3, check peak concurrency against the quota,
// simulate support load and plan GPU reservations.
type repro struct {
	seed uint64
}

// The paper's enrollment and total compute hours; a run must land within
// reproTolerance of the total.
const (
	students        = course.Enrollment
	paperTotalHours = 186_692
	reproTolerance  = 0.02
)

func (r *repro) op(tr *tracer) (*digest, error) {
	var s *core.Summary
	var err error
	if tr == nil {
		s, err = core.Planner{Students: students, Seed: r.seed}.Run()
	} else {
		s, err = r.plan(tr)
	}
	if err != nil {
		return nil, err
	}

	sp := tr.begin("report.Table1")
	_, err = report.Table1(s.Labs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("report.Fig1")
	_ = report.Fig1(s.Labs)
	tr.end(sp)
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		sp = tr.begin("report.Fig2")
		_, err = report.Fig2(s.Labs, p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("report.Fig3")
	_ = report.Fig3(s.Projects)
	tr.end(sp)

	m0, _ := tr.heap()
	sp = tr.begin("core.PeakConcurrency")
	peak := core.PeakConcurrency(s.Labs)
	tr.end(sp)
	m1, _ := tr.heap()
	tr.count("core.peak_alloc_bytes", float64(m1-m0))
	sp = tr.begin("core.QuotaCheck")
	_ = core.QuotaCheck(peak, cloud.CourseQuota())
	tr.end(sp)

	sp = tr.begin("support.Simulate")
	sup := support.Simulate(support.Config{Students: students, Seed: r.seed})
	_ = sup.Summary()
	tr.end(sp)

	sp = tr.begin("core.PlanReservations")
	plans := core.PlanReservations(students)
	tr.end(sp)
	sp = tr.begin("report.Table")
	rows := [][]string{{"Node Type", "Week", "Nodes", "Demand (h)", "Utilization"}}
	for _, p := range plans {
		rows = append(rows, []string{p.NodeType, fmt.Sprint(p.Week), fmt.Sprint(p.Nodes),
			fmt.Sprintf("%.0f", p.DemandHours), fmt.Sprintf("%.0f%%", 100*p.Utilization)})
	}
	_ = report.Table(rows)
	tr.end(sp)

	if tr != nil {
		tr.count("simclock.events", float64(s.Labs.Clock.Executed()))
		records := 0
		s.Labs.Cloud.Meter().Records(func(*cloud.UsageRecord) bool { records++; return false })
		tr.count("cloud.meter_records", float64(records))
	}

	d := &digest{}
	d.add("summary.lab_instance_hours", s.LabInstanceHours)
	d.add("summary.lab_fip_hours", s.LabFIPHours)
	d.add("summary.total_hours", s.TotalHours())
	d.add("summary.lab_cost_aws", s.LabCostAWS)
	d.add("summary.lab_cost_gcp", s.LabCostGCP)
	d.add("summary.project_cost_aws", s.ProjectCostAWS)
	d.add("summary.project_cost_gcp", s.ProjectCostGCP)
	d.add("summary.per_student_aws", s.PerStudentAWS)
	d.add("summary.per_student_gcp", s.PerStudentGCP)
	for _, f := range []struct {
		name string
		st   studentsim.Fig2Stats
	}{{"aws", s.Fig2AWS}, {"gcp", s.Fig2GCP}} {
		d.add("fig2."+f.name+".mean", f.st.Mean)
		d.add("fig2."+f.name+".max", f.st.Max)
		d.add("fig2."+f.name+".expected", f.st.Expected)
		d.add("fig2."+f.name+".exceed_frac", f.st.ExceedFrac)
	}
	d.addInt("peak.instances", int64(peak.Instances))
	d.addInt("peak.cores", int64(peak.Cores))
	d.addInt("peak.ram_gb", int64(peak.RAMGB))
	d.addInt("peak.floating_ips", int64(peak.FloatingIPs))
	d.addInt("support.threads", int64(len(sup.Threads)))
	d.addInt("support.posts", int64(sup.TotalPosts))
	for _, p := range plans {
		d.addInt(fmt.Sprintf("reserve.%s.week%d.nodes", p.NodeType, p.Week), int64(p.Nodes))
	}
	return d, nil
}

// plan is core.Planner.Run with a span around each call it makes, so the
// traced run can split the simulation into its layers. It must return
// what Planner.Run returns; every run checks that the digests agree.
func (r *repro) plan(tr *tracer) (*core.Summary, error) {
	m0, _ := tr.heap()
	sp := tr.begin("studentsim.SimulateLabs")
	labs, err := studentsim.SimulateLabs(studentsim.Config{Students: students, Seed: r.seed})
	tr.end(sp)
	m1, _ := tr.heap()
	tr.count("studentsim.labs_alloc_bytes", float64(m1-m0))
	if err != nil {
		return nil, err
	}
	sp = tr.begin("studentsim.SimulateProjects")
	projects := studentsim.SimulateProjects(studentsim.ProjectConfig{Seed: r.seed})
	tr.end(sp)

	s := &core.Summary{
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
	for _, c := range []struct {
		p         cost.Provider
		lab, proj *float64
	}{{cost.AWS, &s.LabCostAWS, &s.ProjectCostAWS}, {cost.GCP, &s.LabCostGCP, &s.ProjectCostGCP}} {
		sp = tr.begin("cost.LabCost")
		*c.lab, err = cost.LabCost(usages, c.p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("cost.ProjectCost")
		*c.proj, err = cost.ProjectCost(projects.Usage, c.p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	n := float64(labs.Config.Students)
	s.PerStudentAWS = (s.LabCostAWS + s.ProjectCostAWS) / n
	s.PerStudentGCP = (s.LabCostGCP + s.ProjectCostGCP) / n

	paper := course.Paper()
	for _, f := range []struct {
		p        cost.Provider
		expected float64
		out      *studentsim.Fig2Stats
	}{{cost.AWS, paper.ExpectedLabCostAWS, &s.Fig2AWS}, {cost.GCP, paper.ExpectedLabCostGCP, &s.Fig2GCP}} {
		sp = tr.begin("studentsim.Fig2")
		*f.out, err = studentsim.Fig2(labs, f.p, f.expected)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (r *repro) check(d *digest) error {
	h, _ := d.get("summary.total_hours")
	if math.Abs(h-paperTotalHours) > reproTolerance*paperTotalHours {
		return fmt.Errorf("total hours %.0f not within %.0f%% of the paper's %d",
			h, 100*reproTolerance, paperTotalHours)
	}
	return nil
}

func (r *repro) sibling() *sibling { return nil }

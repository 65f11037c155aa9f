package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/course"
	"repro/internal/simclock"
	"repro/internal/studentsim"
)

func TestPlannerRunHeadlines(t *testing.T) {
	s, err := Planner{}.Run()
	if err != nil {
		t.Fatal(err)
	}
	paper := course.Paper()
	within(t, "lab hours", s.LabInstanceHours, paper.LabInstanceHours, 0.02)
	within(t, "lab cost AWS", s.LabCostAWS, paper.LabCostAWS, 0.05)
	within(t, "lab cost GCP", s.LabCostGCP, paper.LabCostGCP, 0.05)
	within(t, "project cost AWS", s.ProjectCostAWS, paper.ProjectCostAWS, 0.08)
	within(t, "project cost GCP", s.ProjectCostGCP, paper.ProjectCostGCP, 0.08)
	within(t, "total hours", s.TotalHours(), 186692, 0.02)
	if s.PerStudentAWS < 225 || s.PerStudentAWS > 285 {
		t.Errorf("per-student AWS = $%.0f, want ≈$250", s.PerStudentAWS)
	}
	if s.Fig2AWS.Mean <= 0 || s.Fig2GCP.Mean <= 0 {
		t.Error("Fig2 stats missing")
	}
}

// Regression: same-instant releases sorted first only for instances, so
// a floating IP released at the instant another was allocated could be
// counted twice when the later record was metered first.
func TestPeakConcurrencyReleasesFloatingIPsFirst(t *testing.T) {
	clk := simclock.New()
	cl := cloud.New("kvm@test", clk)
	m := cl.Meter()
	m.Open(cloud.UsageFloatingIP, "course", "", cloud.Tags{}, 1, 5).End = 10 // B
	m.Open(cloud.UsageFloatingIP, "course", "", cloud.Tags{}, 1, 0).End = 5  // A
	peak := PeakConcurrency(&studentsim.Result{Cloud: cl, Clock: clk})
	if peak.FloatingIPs != 1 {
		t.Errorf("peak floating IPs = %d, want 1: A's release and B's allocation share t=5", peak.FloatingIPs)
	}
}

func TestPeakConcurrencyWithinRequestedQuota(t *testing.T) {
	// The paper requested 600 instances / 1200 cores / 2.5 TB RAM / 300
	// floating IPs; the simulated course must actually fit (the labs ran).
	s, err := Planner{}.Run()
	if err != nil {
		t.Fatal(err)
	}
	peak := PeakConcurrency(s.Labs)
	q := cloud.CourseQuota()
	if peak.Instances == 0 || peak.Cores == 0 {
		t.Fatal("peak concurrency empty — meter not populated")
	}
	if peak.Instances > q.Instances {
		t.Errorf("peak instances %d exceed quota %d", peak.Instances, q.Instances)
	}
	if peak.Cores > q.Cores {
		t.Errorf("peak cores %d exceed quota %d", peak.Cores, q.Cores)
	}
	if peak.RAMGB > q.RAMGB {
		t.Errorf("peak RAM %d exceeds quota %d", peak.RAMGB, q.RAMGB)
	}
	if peak.FloatingIPs > q.FloatingIPs {
		t.Errorf("peak FIPs %d exceed quota %d", peak.FloatingIPs, q.FloatingIPs)
	}
	// And the quota was not absurdly oversized: peak should be a
	// meaningful fraction of it.
	if peak.Instances < 50 {
		t.Errorf("peak instances %d suspiciously low", peak.Instances)
	}
	for _, line := range QuotaCheck(peak, q) {
		if strings.Contains(line, "EXCEEDED") {
			t.Errorf("quota check: %s", line)
		}
	}
}

func TestQuotaCheckFlagsExceeded(t *testing.T) {
	lines := QuotaCheck(PeakUsage{Instances: 700, Cores: 100, RAMGB: 100, FloatingIPs: 10}, cloud.CourseQuota())
	if !strings.Contains(lines[0], "EXCEEDED") {
		t.Errorf("line = %q", lines[0])
	}
	if strings.Contains(lines[1], "EXCEEDED") {
		t.Errorf("cores wrongly flagged: %q", lines[1])
	}
	q := cloud.CourseQuota()
	lines = QuotaCheck(PeakUsage{Instances: q.Instances, Cores: q.Cores - 1}, q)
	if want := "AT LIMIT (100%)"; !strings.HasSuffix(lines[0], want) {
		t.Errorf("peak at the limit: line = %q, want suffix %q", lines[0], want)
	}
	if !strings.HasSuffix(lines[1], " OK (100%)") {
		t.Errorf("peak one below the limit: line = %q, want OK", lines[1])
	}
}

func TestPlanReservations(t *testing.T) {
	plans := PlanReservations(course.Enrollment)
	if len(plans) == 0 {
		t.Fatal("no reservation plans")
	}
	for _, p := range plans {
		if p.Nodes < 1 {
			t.Errorf("%s week %d: %d nodes", p.NodeType, p.Week, p.Nodes)
		}
		if p.Utilization <= 0 || p.Utilization > 1 {
			t.Errorf("%s utilization %v outside (0, 1]", p.NodeType, p.Utilization)
		}
	}
	// Doubling enrollment should not shrink any pool.
	double := PlanReservations(2 * course.Enrollment)
	for i := range plans {
		if double[i].Nodes < plans[i].Nodes {
			t.Errorf("%s pool shrank with enrollment", plans[i].NodeType)
		}
	}
}

func TestSmallCourseScalesDown(t *testing.T) {
	s, err := Planner{Students: 30, Seed: 2, Groups: 8}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.LabInstanceHours >= course.Paper().LabInstanceHours/3 {
		t.Errorf("30-student course used %v hours", s.LabInstanceHours)
	}
	// Per-student lab cost should stay in the same regime.
	perStudentLab := s.LabCostAWS / 30
	if perStudentLab < 60 || perStudentLab > 220 {
		t.Errorf("per-student lab cost at n=30: $%.0f", perStudentLab)
	}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.1f, want %.1f (±%.0f%%)", name, got, want, tol*100)
	}
}

func TestRecommendQuota(t *testing.T) {
	q, peak, err := RecommendQuota(course.Enrollment, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// The recommendation covers the observed peak with headroom.
	if q.Instances < peak.Instances || q.Cores < peak.Cores {
		t.Errorf("recommendation below peak: %+v vs %+v", q, peak)
	}
	// And lands in the same regime as the paper's actual request (600 /
	// 1200 / 2560 / 300) — within a factor of ~2 either way.
	paper := cloud.CourseQuota()
	ratio := float64(q.Instances) / float64(paper.Instances)
	if ratio < 0.3 || ratio > 2 {
		t.Errorf("instance recommendation %d vs paper request %d (ratio %.2f)",
			q.Instances, paper.Instances, ratio)
	}
	// Scales with enrollment.
	small, _, err := RecommendQuota(50, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if small.Instances >= q.Instances {
		t.Error("smaller enrollment did not shrink the recommendation")
	}
	// Default headroom kicks in for non-positive input.
	d, _, err := RecommendQuota(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Instances != small.Instances {
		t.Errorf("default headroom mismatch: %d vs %d", d.Instances, small.Instances)
	}
}

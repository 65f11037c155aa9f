package cost_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/course"
)

// table1 returns Table 1's published per-row usage.
func table1Usage() []cost.LabUsage {
	var out []cost.LabUsage
	for _, r := range course.Rows() {
		out = append(out, cost.LabUsage{
			RowID:         r.ID,
			InstanceHours: r.TargetHours * course.Enrollment,
			FIPHours:      r.TargetFIPHours * course.Enrollment,
		})
	}
	return out
}

// TestTable1RowCostsMatchPaper verifies that pricing the paper's exact
// usage reproduces Table 1's dollar column within 1% per row.
func TestTable1RowCostsMatchPaper(t *testing.T) {
	paperAWS := map[string]float64{
		"1": 40, "2": 2264, "3": 1399,
		"4-multi-a100": 2993, "4-multi-v100": 3764, "4-single": 722,
		"5-multi-liqid2": 1524, "5-multi-mi100": 4627,
		"5-single-gigaio": 41, "5-single-liqid": 190,
		"6-opt-gigaio": 191, "6-opt-liqid": 410, "6-edge": 0, "6-system": 3582,
		"7": 461, "8": 1490,
	}
	paperGCP := map[string]float64{
		"1": 57, "2": 5347, "3": 3305,
		"4-multi-a100": 2456, "4-multi-v100": 3088, "4-single": 1106,
		"5-multi-liqid2": 662, "5-multi-mi100": 2009,
		"5-single-gigaio": 32, "5-single-liqid": 150,
		"6-opt-gigaio": 154, "6-opt-liqid": 329, "6-edge": 0, "6-system": 1417,
		"7": 381, "8": 626,
	}
	for _, u := range table1Usage() {
		aws, err := cost.LabRowCost(u, cost.AWS)
		if err != nil {
			t.Fatal(err)
		}
		gcp, err := cost.LabRowCost(u, cost.GCP)
		if err != nil {
			t.Fatal(err)
		}
		checkWithin(t, u.RowID+"/AWS", aws, paperAWS[u.RowID], 0.01)
		checkWithin(t, u.RowID+"/GCP", gcp, paperGCP[u.RowID], 0.01)
	}
}

// TestTable1TotalsMatchPaper checks the bottom line: $23,698 AWS /
// $21,119 GCP for 109,837 instance hours.
func TestTable1TotalsMatchPaper(t *testing.T) {
	usage := table1Usage()
	var instHours float64
	for _, u := range usage {
		instHours += u.InstanceHours
	}
	checkWithin(t, "instance hours", instHours, course.Paper().LabInstanceHours, 0.001)

	aws, err := cost.LabCost(usage, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	gcp, err := cost.LabCost(usage, cost.GCP)
	if err != nil {
		t.Fatal(err)
	}
	checkWithin(t, "AWS total", aws, course.Paper().LabCostAWS, 0.01)
	checkWithin(t, "GCP total", gcp, course.Paper().LabCostGCP, 0.01)
}

func TestEdgeRowExcluded(t *testing.T) {
	c, err := cost.LabRowCost(cost.LabUsage{RowID: "6-edge", InstanceHours: 492, FIPHours: 492}, cost.AWS)
	if err != nil || c != 0 {
		t.Errorf("edge row cost = %v, %v; want 0, nil", c, err)
	}
	if _, err := cost.LabEquivalent("6-edge"); !errors.Is(err, cost.ErrNoEquivalent) {
		t.Errorf("edge equivalent err = %v", err)
	}
}

// Table 1 and the lab sims price every student's rows several times per
// run, the edge row included, so pricing a row allocates nothing, not
// even on the row that prices at zero.
func TestLabRowCostAllocatesNothing(t *testing.T) {
	rows := course.Rows()
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, r := range rows {
				if _, err := cost.LabRowCost(cost.LabUsage{RowID: r.ID, InstanceHours: 10, FIPHours: 5}, p); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: pricing every course row allocates %v times, want 0", p, allocs)
		}
	}
}

func TestUnknownRow(t *testing.T) {
	if _, err := cost.LabRowCost(cost.LabUsage{RowID: "99"}, cost.AWS); err == nil {
		t.Error("unknown row accepted")
	}
	if _, err := cost.ProjectEquivalent("quantum"); err == nil {
		t.Error("unknown project class accepted")
	}
}

func TestCostMonotonicInHours(t *testing.T) {
	small, _ := cost.LabRowCost(cost.LabUsage{RowID: "2", InstanceHours: 100, FIPHours: 30}, cost.AWS)
	big, _ := cost.LabRowCost(cost.LabUsage{RowID: "2", InstanceHours: 200, FIPHours: 60}, cost.AWS)
	if big <= small {
		t.Errorf("cost not monotone: %v vs %v", small, big)
	}
	if math.Abs(big-2*small) > 1e-9 {
		t.Errorf("cost not linear: %v vs 2×%v", big, small)
	}
}

func TestExpectedCostMatchesPaper(t *testing.T) {
	// Pricing the §3 expected durations should land near the paper's
	// expected per-student cost ($79.80 AWS, $58.85 GCP).
	var usages []cost.LabUsage
	for _, r := range course.Rows() {
		usages = append(usages, cost.LabUsage{
			RowID:         r.ID,
			InstanceHours: r.ExpectedHours * float64(r.VMsPerStudent) * r.Share,
			FIPHours:      r.ExpectedHours * r.Share,
		})
	}
	aws, err := cost.LabCost(usages, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	gcp, err := cost.LabCost(usages, cost.GCP)
	if err != nil {
		t.Fatal(err)
	}
	checkWithin(t, "expected/student AWS", aws, course.Paper().ExpectedLabCostAWS, 0.06)
	checkWithin(t, "expected/student GCP", gcp, course.Paper().ExpectedLabCostGCP, 0.06)
}

func TestProjectCostShape(t *testing.T) {
	u := cost.ProjectUsage{
		VMHours:  map[string]float64{"m1.medium": 1000},
		GPUHours: map[string]float64{"gpu-a100": 100},
	}
	aws, err := cost.ProjectCost(u, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000*0.0416 + 100*3.307
	if math.Abs(aws-want) > 1e-9 {
		t.Errorf("project cost = %v, want %v", aws, want)
	}
	// Storage and FIPs contribute.
	u.BlockGBMonths = 100
	u.FIPHours = 1000
	aws2, _ := cost.ProjectCost(u, cost.AWS)
	if aws2 <= aws {
		t.Error("storage/FIP not priced")
	}
	if u.TotalVMHours() != 1000 || u.TotalGPUHours() != 100 {
		t.Error("usage totals wrong")
	}
}

func checkWithin(t *testing.T, name string, got, want, tolerance float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/want > tolerance {
		t.Errorf("%s = %.1f, want %.1f (±%.0f%%)", name, got, want, tolerance*100)
	}
}

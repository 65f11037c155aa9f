package report

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/lease"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// TestCostByTraceReconciles drives a real lease+cloud run with tracing
// attached and checks the acceptance criterion: the per-trace cost rows
// sum exactly (to the cent) to the aggregate instance-hour bill computed
// straight off the meter, with untraced usage carried by its own row
// rather than dropped.
func TestCostByTraceReconciles(t *testing.T) {
	clk := simclock.New()
	cl := cloud.New("site", clk)
	cl.AddVMCapacity(2, 16, 64)
	cl.CreateProject("mlops", cloud.CourseQuota())
	tracer := trace.New(42, clk.Now)
	ls := lease.New(clk, cl)
	ls.SetTracer(tracer)
	ls.AddPool(mustFlavor(t, "gpu_a100_pcie"), 2)

	for _, bk := range []struct {
		user       string
		start, end float64
	}{
		{"alice", 1, 4},
		{"bob", 1, 3},
		{"carol", 3.5, 5},
	} {
		if _, err := ls.Book(lease.Spec{Project: "mlops", User: bk.user,
			NodeType: "gpu_a100_pcie", Start: bk.start, End: bk.end,
			Tags: cloud.NewTags("user", bk.user)}); err != nil {
			t.Fatal(err)
		}
	}
	// Untraced on-demand VM that outlives the run: its open meter record
	// must land in the "(untraced)" row, not vanish.
	if _, err := cl.Launch(cloud.LaunchSpec{Project: "mlops", Name: "notebook",
		Flavor: mustFlavor(t, "m1.medium")}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(6)

	now := clk.Now()
	rate := TraceRate(cost.AWS)
	recs := cl.Meter().Records(func(*cloud.UsageRecord) bool { return true })
	rows := CostByTrace(recs, now, rate, tracer)

	// 3 lease traces + untraced.
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d: %+v", len(rows), rows)
	}
	var rowDollars, rowHours float64
	var sawUntraced bool
	for _, r := range rows {
		rowDollars += r.Dollars
		rowHours += r.Hours
		if r.TraceID == "(untraced)" {
			sawUntraced = true
			if r.Hours != 6 {
				t.Fatalf("untraced row hours = %v, want 6 (open record)", r.Hours)
			}
		} else if !strings.HasPrefix(r.Name, "lease lease-") {
			t.Fatalf("traced row lost its name: %+v", r)
		}
	}
	if !sawUntraced {
		t.Fatalf("no (untraced) row in %+v", rows)
	}

	// The aggregate bill, computed independently off the meter.
	var aggDollars, aggHours float64
	for _, r := range recs {
		aggHours += r.Hours(now)
		aggDollars += r.Hours(now) * rate(r)
	}
	if math.Round(rowDollars*100) != math.Round(aggDollars*100) {
		t.Fatalf("per-trace dollars %.6f do not reconcile with aggregate %.6f", rowDollars, aggDollars)
	}
	if math.Abs(rowHours-aggHours) > 1e-9 {
		t.Fatalf("per-trace hours %v != aggregate %v", rowHours, aggHours)
	}
	// Sanity: the bill is non-trivial ((3+2+1.5) GPU hours + 6 VM hours).
	if aggDollars <= 0 {
		t.Fatal("aggregate bill is zero; the scenario launched nothing")
	}

	out := TraceCostTable(rows)
	if !strings.Contains(out, "(untraced)") || !strings.Contains(out, "total") {
		t.Fatalf("cost table missing rows:\n%s", out)
	}

	summary := TraceSummary(tracer, 2)
	for _, want := range []string{"== Traces ==", "critical path", "lease.active", "(1 more traces)"} {
		if !strings.Contains(summary, want) {
			t.Fatalf("trace summary missing %q:\n%s", want, summary)
		}
	}
}

func mustFlavor(t *testing.T, name string) cloud.Flavor {
	t.Helper()
	f, err := cloud.FlavorByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

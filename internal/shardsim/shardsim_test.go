package shardsim_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/course"
	"repro/internal/report"
	"repro/internal/shardsim"
	"repro/internal/stats"
	"repro/internal/studentsim"
)

// TestByteIdenticalAcrossGeometry is the tentpole property: the rendered
// report is the same bytes for every shard size and worker count.
func TestByteIdenticalAcrossGeometry(t *testing.T) {
	base := shardsim.Config{Students: 20_000, Seed: 5}
	geoms := []struct {
		shardSize, workers int
	}{
		{4096, 1},
		{4096, 8},
		{1000, 3},
		{37, 16},
		{20_000, 2},
	}
	var want string
	for i, g := range geoms {
		cfg := base
		cfg.ShardSize = g.shardSize
		cfg.Workers = g.workers
		rep, err := shardsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := report.Sharded(rep)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("geometry %+v changed the report:\n--- got ---\n%s\n--- want ---\n%s", g, got, want)
		}
	}
}

// TestTotalsConvergeToTable1 checks the law-of-large-numbers promise: at
// 200k students, per-student row means land on the Table-1 targets and
// the instance-hour total matches the paper's 109837/191.
func TestTotalsConvergeToTable1(t *testing.T) {
	rep, err := shardsim.Run(shardsim.Config{Students: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(rep.Students)
	var instMicro, fipMicro int64
	for _, rt := range rep.Rows {
		instMicro += rt.Instances.SumMicro
		fipMicro += rt.FIPs.SumMicro
		got := float64(rt.Instances.SumMicro) / stats.MicroPerUnit / n
		want := rt.Row.TargetHours
		tol := 0.06 // heavy-tailed rows: SE of the mean ~1.6% at 200k
		if math.Abs(got-want) > tol*want {
			t.Errorf("row %s: per-student hours %.3f, want %.3f ±%.0f%%",
				rt.Row.ID, got, want, tol*100)
		}
		if rt.ClippedMicroHours != 0 {
			t.Errorf("row %s: clipped %d micro-hours under default calibration",
				rt.Row.ID, rt.ClippedMicroHours)
		}
	}
	paper := course.Paper()
	wantTotal := paper.LabInstanceHours / course.Enrollment
	gotTotal := float64(instMicro) / stats.MicroPerUnit / n
	if math.Abs(gotTotal-wantTotal) > 0.03*wantTotal {
		t.Errorf("total per-student instance hours %.2f, want %.2f ±3%%", gotTotal, wantTotal)
	}
	wantFIP := paper.LabFIPHours / course.Enrollment
	gotFIP := float64(fipMicro) / stats.MicroPerUnit / n
	if math.Abs(gotFIP-wantFIP) > 0.05*wantFIP {
		t.Errorf("total per-student FIP hours %.2f, want %.2f ±5%%", gotFIP, wantFIP)
	}
}

// TestCostDistributionAtScale checks that the paper's Fig. 2 findings
// survive the scale-out: mean per-student cost near $124/$111, a heavy
// tail (max far above the mean), and the headline exceedance — ~3 in 4
// students cost more than the expected-usage estimate — at both
// providers.
func TestCostDistributionAtScale(t *testing.T) {
	rep, err := shardsim.Run(shardsim.Config{Students: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paper := course.Paper()
	checks := []struct {
		name     string
		c        shardsim.CostTotals
		wantMean float64
	}{
		{"AWS", rep.AWS, paper.LabCostPerStudentAWS},
		{"GCP", rep.GCP, paper.LabCostPerStudentGCP},
	}
	for _, ck := range checks {
		mean := accMean(ck.c.PerStudent)
		if math.Abs(mean-ck.wantMean) > 0.08*ck.wantMean {
			t.Errorf("%s mean $%.2f, want $%.0f ±8%%", ck.name, mean, ck.wantMean)
		}
		if frac := ck.c.ExceedFrac(); frac < 0.70 || frac > 0.82 {
			t.Errorf("%s exceedance %.3f outside [0.70, 0.82] (paper: ~0.73-0.75)",
				ck.name, frac)
		}
		// Heavy tail: the most expensive student dwarfs the mean (the
		// paper's $665 max vs $124 mean at n=191; larger n reaches
		// further into the tail).
		if ck.c.PerStudent.MaxV < 4*mean {
			t.Errorf("%s max $%.0f not heavy-tailed vs mean $%.2f",
				ck.name, ck.c.PerStudent.MaxV, mean)
		}
		if ck.c.PerStudent.N != int64(rep.Students) {
			t.Errorf("%s cost N = %d, want %d", ck.name, ck.c.PerStudent.N, rep.Students)
		}
	}
}

// TestShortSemesterRejected checks that a semester ending before the last
// lab week is an error, not negative session hours; a semester that just
// covers it books every session with a non-negative length.
func TestShortSemesterRejected(t *testing.T) {
	for _, tc := range []struct {
		weeks   int
		wantErr bool
	}{
		{-3, true},
		{1, true},
		{7, true},
		{8, false}, // the last lab runs in week 8
	} {
		rep, err := shardsim.Run(shardsim.Config{Students: 2000, Seed: 1, SemesterWeeks: tc.weeks})
		if tc.wantErr {
			if err == nil {
				t.Errorf("SemesterWeeks %d: want error, got none", tc.weeks)
			}
			continue
		}
		if err != nil {
			t.Fatalf("SemesterWeeks %d: %v", tc.weeks, err)
		}
		for _, rt := range rep.Rows {
			if rt.Instances.MinV < 0 || rt.FIPs.MinV < 0 {
				t.Errorf("SemesterWeeks %d: row %s has negative hours (instances min %v, FIPs min %v)",
					tc.weeks, rt.Row.ID, rt.Instances.MinV, rt.FIPs.MinV)
			}
		}
	}
}

// TestRunAllocsPerStudent pins the allocation contract of the fold: a
// run allocates per shard and per run, never per student or per
// session.
func TestRunAllocsPerStudent(t *testing.T) {
	const students = 20_000
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := shardsim.Run(shardsim.Config{Students: students, Seed: 1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / students; per >= 0.1 {
		t.Errorf("Run allocates %.0f objects for %d students (%.3f per student), want < 0.1",
			allocs, students, per)
	}
}

// TestBehaviorOverrides mirrors the reference what-if semantics
// (studentsim.TestWhatIfAutoTerminationFloor): DisableOverhang cuts the
// mean to near the working-time floor, collapses the overhang-driven
// tail, and leaves reserved (GPU) rows untouched.
func TestBehaviorOverrides(t *testing.T) {
	base, err := shardsim.Run(shardsim.Config{Students: 20_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := shardsim.Run(shardsim.Config{Students: 20_000, Seed: 3,
		Behavior: &studentsim.Behavior{DisableOverhang: true}})
	if err != nil {
		t.Fatal(err)
	}
	baseMean, prunedMean := accMean(base.AWS.PerStudent), accMean(pruned.AWS.PerStudent)
	if prunedMean >= baseMean-10 {
		t.Errorf("DisableOverhang mean $%.2f should cut well below base $%.2f", prunedMean, baseMean)
	}
	if prunedMean < 70 {
		t.Errorf("DisableOverhang mean $%.2f implausibly low (GPU floor)", prunedMean)
	}
	if pruned.AWS.PerStudent.MaxV >= base.AWS.PerStudent.MaxV/2 {
		t.Errorf("DisableOverhang max $%.0f should collapse the tail (base max $%.0f)",
			pruned.AWS.PerStudent.MaxV, base.AWS.PerStudent.MaxV)
	}
	for i := range base.Rows {
		if !base.Rows[i].Row.Reserved() {
			continue
		}
		if pruned.Rows[i].Instances != base.Rows[i].Instances {
			t.Errorf("row %s reserved hours changed under VM-only override", base.Rows[i].Row.ID)
		}
	}
}

// TestSplitLabelSchemeCollisionFree spot-checks the sharded core's RNG
// derivation paths for stream collisions: across blocks, students, and
// per-student stream labels, no two derived generators may start with
// the same output pair.
func TestSplitLabelSchemeCollisionFree(t *testing.T) {
	const students = 8192 // spans two derivation blocks
	root := stats.NewRNG(1)
	seen := make(map[[2]uint64]string, students*4)
	streams := []uint64{0, 1, 6, 64, 70} // negligence, rows, assignments
	for g := 0; g < students; g++ {
		block := root.Split(1 + uint64(g)>>12)
		stu := block.Split(uint64(g))
		for _, lbl := range streams {
			s := stu.Split(lbl)
			key := [2]uint64{s.Uint64(), s.Uint64()}
			if prev, dup := seen[key]; dup {
				t.Fatalf("stream collision: student %d label %d equals %s", g, lbl, prev)
			}
			seen[key] = fmt.Sprintf("student %d label %d", g, lbl)
		}
	}
}

// BenchmarkRun measures the sharded core's throughput at a mid-size and
// at the million-student population, as students per second and heap
// bytes allocated per student.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name     string
		students int
	}{
		{"100k", 100_000},
		{"1M", 1_000_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shardsim.Run(shardsim.Config{Students: bc.students, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(bc.students)
			b.ReportMetric(n/b.Elapsed().Seconds(), "students/s")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/student")
		})
	}
}

// accMean is an accumulator's mean in units (0 when empty).
func accMean(a stats.Acc) float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.SumMicro) / stats.MicroPerUnit / float64(a.N)
}

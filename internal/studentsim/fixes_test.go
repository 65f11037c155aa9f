package studentsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/course"
	"repro/internal/lease"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// TestOverhangMassConserved checks the waterfilling invariant: the
// configured overhang mass is either placed on students or explicitly
// reported as clipped, never silently dropped. Overhang mass scales
// linearly with OverhangScale and the same seed reuses the same effort
// draws, so (hours@S + clipped@S - working) must equal S x (hours@1 -
// working) per row — including under an extreme scale where every
// non-prompt student pins at maxOverhangHours and the old code leaked
// the remainder. The invariant belongs to the model, not to the quota:
// at scale 50 the course quota refuses launches, and the book holds only
// what ran. So the passes run the VM rows on a platform that refuses
// nothing; TestSubstrateMeterAgreesWithBookkeeping covers the refusals.
func TestOverhangMassConserved(t *testing.T) {
	const seed = 11
	// At the calibrated scale the cap redistributes fully: nothing to clip.
	calibrated, err := SimulateLabs(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for row, c := range calibrated.ClippedOverhangHours {
		if c > 1e-6 {
			t.Errorf("row %s: clipped %.3f h at calibrated scale, want 0", row, c)
		}
	}

	n, teardown := course.Enrollment, 15*course.HoursPerWeek
	negligence := stratifiedLogNormal(n, 1, negligenceSigma, stats.NewRNG(seed).Split(1))
	run := func(b *Behavior) *Result {
		clk := simclock.New()
		cl := cloud.New("test@sim", clk)
		cl.AddVMCapacity(100, 100, 400)
		cl.CreateProject("course", unlimited)
		res, rng := harness(n, cl, nil, clk), stats.NewRNG(seed)
		for i, row := range course.Rows() {
			if row.Reserved() {
				continue
			}
			if err := simulateVMRow(res, cl, clk, row, negligence, b.effective(), teardown, rng.Split(uint64(100+i))); err != nil {
				t.Fatal(err)
			}
		}
		clk.RunUntil(teardown + 1)
		res.book(course.Rows())
		return res
	}
	working := run(&Behavior{DisableOverhang: true})
	base := run(nil)
	const scale = 50.0
	extreme := run(&Behavior{OverhangScale: scale})

	sawClipped := false
	for _, row := range course.Rows() {
		if row.Reserved() {
			continue
		}
		baseMass := base.RowInstanceHours[row.ID] - working.RowInstanceHours[row.ID]
		gotMass := extreme.RowInstanceHours[row.ID] + extreme.ClippedOverhangHours[row.ID] -
			working.RowInstanceHours[row.ID]
		wantMass := scale * baseMass
		if wantMass <= 0 {
			continue
		}
		if math.Abs(gotMass-wantMass)/wantMass > 1e-6 {
			t.Errorf("row %s: placed+clipped overhang %.1f h, want %.1f h (mass not conserved)",
				row.ID, gotMass, wantMass)
		}
		if extreme.ClippedOverhangHours[row.ID] > 0 {
			sawClipped = true
		}
	}
	if !sawClipped {
		t.Fatal("extreme OverhangScale produced no clipped mass; test is not exercising the cap")
	}
}

// unlimited is a quota that refuses nothing.
var unlimited = cloud.Quota{
	Instances: cloud.Unlimited, Cores: cloud.Unlimited, RAMGB: cloud.Unlimited,
	Networks: cloud.Unlimited, Routers: cloud.Unlimited, FloatingIPs: cloud.Unlimited,
	SecurityGroups: cloud.Unlimited, Volumes: cloud.Unlimited, BlockStorageGB: cloud.Unlimited,
}

// harness returns the empty Result that the simulate functions drive
// and book fills, for n students on the given substrate.
func harness(n int, cl *cloud.Cloud, ls *lease.Service, clk *simclock.Clock) *Result {
	res := &Result{
		Config:               Config{Students: n},
		RowInstanceHours:     map[string]float64{},
		RowFIPHours:          map[string]float64{},
		ClippedOverhangHours: map[string]float64{},
		Cloud:                cl, Lease: ls, Clock: clk,
	}
	res.Students = make([]StudentUsage, n)
	for i := range res.Students {
		res.Students[i] = StudentUsage{
			ID:        fmt.Sprintf("s%03d", i),
			InstHours: map[string]float64{},
			FIPHours:  map[string]float64{},
		}
	}
	return res
}

// reservedHarness builds the minimal substrate simulateReservedAssignment
// needs: n students, one lease pool for the rows' flavor, no staff holds.
func reservedHarness(t *testing.T, n, nodes int, flavor cloud.Flavor) (*Result, *cloud.Cloud, *lease.Service) {
	t.Helper()
	clk := simclock.New()
	cl := cloud.New("test@sim", clk)
	cl.CreateProject("course-chi", unlimited)
	ls := lease.New(clk, cl)
	ls.AddPool(flavor, nodes)
	return harness(n, cl, ls, clk), cl, ls
}

func reservedRow(id string, share float64) course.Row {
	return course.Row{
		ID: id, Assignment: "T. Split", Unit: 4, Flavor: cloud.ComputeGigaIO,
		VMsPerStudent: 1, ExpectedHours: 2, SlotHours: 2,
		TargetHours: 2, Week: 1, Share: share,
	}
}

// TestReservedShareRoundingSmallN pins the share-rounding fix: rounded
// per-row head counts must never sum past n (which used to drive the
// last row's count negative — or panic — and dump the shortfall onto
// row 0).
func TestReservedShareRoundingSmallN(t *testing.T) {
	cases := [][]float64{
		{0.34, 0.33, 0.33},
		{0.17, 0.17, 0.17, 0.17, 0.17, 0.15}, // each rounds up at n=3: sum of rounds > n
		{0.5, 0.3, 0.2},
	}
	for _, shares := range cases {
		for _, n := range []int{2, 3, 5} {
			res, cl, ls := reservedHarness(t, n, 4, cloud.ComputeGigaIO)
			rows := make([]course.Row, len(shares))
			for i, s := range shares {
				rows[i] = reservedRow("t"+string(rune('0'+i)), s)
			}
			// Must not panic (old code indexed past the assignment slice
			// when the rounded counts overflowed n).
			if err := simulateReservedAssignment(res, cl, ls, rows, stats.NewRNG(7)); err != nil {
				t.Fatalf("shares %v n=%d: %v", shares, n, err)
			}
			res.Clock.Run()
			res.book(rows)
			// Every student is assigned exactly once: per-student hours
			// appear under exactly the rows they were placed in, and
			// total placements match bookings (no row-0 dumping).
			var totalHours float64
			for _, row := range rows {
				totalHours += res.RowInstanceHours[row.ID]
			}
			var studentHours float64
			for _, s := range res.Students {
				studentHours += sumSorted(s.InstHours)
			}
			if totalHours <= 0 {
				t.Errorf("shares %v n=%d: booked %.2f h, want some", shares, n, totalHours)
			}
			if math.Abs(totalHours-studentHours) > 1e-9 {
				t.Errorf("shares %v n=%d: row hours %.2f != student hours %.2f",
					shares, n, totalHours, studentHours)
			}
		}
	}
}

// TestNoFIPHoursWhenAllLaunchesBlocked pins the floating-IP retry fix: a
// student whose every launch is quota-blocked (and whose retries never
// succeed) must not bill floating-IP hours, because the IP was never
// associated with anything. The book bills such a student nothing.
func TestNoFIPHoursWhenAllLaunchesBlocked(t *testing.T) {
	row := course.Rows()[0] // on-demand VM row
	behavior := (*Behavior)(nil).effective()
	run := func(q cloud.Quota) *Result {
		clk := simclock.New()
		cl := cloud.New("kvm@sim", clk)
		cl.AddVMCapacity(10, 100, 400)
		cl.CreateProject("course", q)
		res := harness(1, cl, nil, clk)
		if err := simulateVMRow(res, cl, clk, row, []float64{1}, behavior, 15*course.HoursPerWeek, stats.NewRNG(3)); err != nil {
			t.Fatal(err)
		}
		clk.Run()
		res.book(course.Rows())
		return res
	}
	// Zero instance quota: every Launch and every retry fails; floating
	// IPs themselves are allowed, so only the association rule prevents
	// allocation.
	blocked := unlimited
	blocked.Instances = 0
	res := run(blocked)
	fipHours := res.Cloud.Meter().TotalHours(res.Clock.Now(), func(r *cloud.UsageRecord) bool {
		return r.Kind == cloud.UsageFloatingIP
	})
	if fipHours != 0 {
		t.Fatalf("metered %.2f floating-IP hours with zero successful launches, want 0", fipHours)
	}
	if inst, fip := res.TotalInstanceHours(), res.TotalFIPHours(); inst != 0 || fip != 0 {
		t.Errorf("booked %.2f instance and %.2f floating-IP hours with zero successful launches, want 0", inst, fip)
	}

	// Control: with quota available the same row does bill FIP hours.
	if got := run(cloud.DefaultProjectQuota()).TotalFIPHours(); got <= 0 {
		t.Fatalf("control run booked no floating-IP hours, want > 0")
	}
}

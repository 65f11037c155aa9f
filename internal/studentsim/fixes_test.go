package studentsim

import (
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
// the remainder.
func TestOverhangMassConserved(t *testing.T) {
	const seed = 11
	run := func(b *Behavior) *Result {
		res, err := SimulateLabs(Config{Seed: seed, Behavior: b})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	working := run(&Behavior{DisableOverhang: true})
	base := run(nil)
	const scale = 50.0
	extreme := run(&Behavior{OverhangScale: scale})

	// At the calibrated scale the cap redistributes fully: nothing to clip.
	for row, c := range base.ClippedOverhangHours {
		if c > 1e-6 {
			t.Errorf("row %s: clipped %.3f h at calibrated scale, want 0", row, c)
		}
	}

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

// reservedHarness builds the minimal substrate simulateReservedAssignment
// needs: n students, one lease pool for the rows' flavor, no staff holds.
func reservedHarness(t *testing.T, n, nodes int, flavor cloud.Flavor) (*Result, *cloud.Cloud, *lease.Service) {
	t.Helper()
	clk := simclock.New()
	cl := cloud.New("test@sim", clk)
	cl.CreateProject("course-chi", cloud.Quota{
		Instances: cloud.Unlimited, Cores: cloud.Unlimited, RAMGB: cloud.Unlimited,
		Networks: cloud.Unlimited, Routers: cloud.Unlimited, FloatingIPs: cloud.Unlimited,
		SecurityGroups: cloud.Unlimited, Volumes: cloud.Unlimited, BlockStorageGB: cloud.Unlimited,
	})
	ls := lease.New(clk, cl)
	ls.AddPool(flavor, nodes)
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
			ID:        string(rune('a' + i)),
			InstHours: map[string]float64{},
			FIPHours:  map[string]float64{},
		}
	}
	return res, cl, ls
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
// associated with anything.
func TestNoFIPHoursWhenAllLaunchesBlocked(t *testing.T) {
	clk := simclock.New()
	cl := cloud.New("kvm@sim", clk)
	cl.AddVMCapacity(10, 100, 400)
	// Zero instance quota: every Launch and every retry fails; floating
	// IPs themselves are allowed, so only the association rule prevents
	// allocation.
	cl.CreateProject("course", cloud.Quota{
		Instances: 0, Cores: cloud.Unlimited, RAMGB: cloud.Unlimited,
		Networks: cloud.Unlimited, Routers: cloud.Unlimited, FloatingIPs: cloud.Unlimited,
		SecurityGroups: cloud.Unlimited, Volumes: cloud.Unlimited, BlockStorageGB: cloud.Unlimited,
	})
	res := &Result{
		Config:               Config{Students: 1},
		RowInstanceHours:     map[string]float64{},
		RowFIPHours:          map[string]float64{},
		ClippedOverhangHours: map[string]float64{},
		Cloud:                cl, Clock: clk,
	}
	res.Students = []StudentUsage{{ID: "s000", InstHours: map[string]float64{}, FIPHours: map[string]float64{}}}

	row := course.Rows()[0] // on-demand VM row
	behavior := (*Behavior)(nil).effective()
	if err := simulateVMRow(res, cl, clk, row, []float64{1}, behavior, 15*course.HoursPerWeek, stats.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	clk.Run()
	now := clk.Now()
	fipHours := cl.Meter().TotalHours(now, func(r *cloud.UsageRecord) bool {
		return r.Kind == cloud.UsageFloatingIP
	})
	if fipHours != 0 {
		t.Fatalf("metered %.2f floating-IP hours with zero successful launches, want 0", fipHours)
	}

	// Control: with quota available the same row does bill FIP hours.
	clk2 := simclock.New()
	cl2 := cloud.New("kvm@sim", clk2)
	cl2.AddVMCapacity(10, 100, 400)
	cl2.CreateProject("course", cloud.DefaultProjectQuota())
	res2 := &Result{
		Config:               Config{Students: 1},
		RowInstanceHours:     map[string]float64{},
		RowFIPHours:          map[string]float64{},
		ClippedOverhangHours: map[string]float64{},
		Cloud:                cl2, Clock: clk2,
	}
	res2.Students = []StudentUsage{{ID: "s000", InstHours: map[string]float64{}, FIPHours: map[string]float64{}}}
	if err := simulateVMRow(res2, cl2, clk2, row, []float64{1}, behavior, 15*course.HoursPerWeek, stats.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	clk2.Run()
	got := cl2.Meter().TotalHours(clk2.Now(), func(r *cloud.UsageRecord) bool {
		return r.Kind == cloud.UsageFloatingIP
	})
	if got <= 0 {
		t.Fatalf("control run metered no floating-IP hours, want > 0")
	}
}

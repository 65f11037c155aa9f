package cloud

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/logging"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

func flatSeries(onDemand, spot float64) cost.SpotPriceSeries {
	return cost.SpotPriceSeries{
		OnDemandPerHour: onDemand,
		Segments:        []cost.SpotSegment{{Start: 0, PerHour: spot}},
	}
}

func spotSite(t *testing.T) (*simclock.Clock, *Cloud, *SpotMarket) {
	t.Helper()
	clk := simclock.New()
	c := New("spot-site", clk)
	c.AddBareMetal(4, ComputeLiqid)
	c.CreateProject("lab", Quota{Instances: 100, Cores: 10000, RAMGB: 100000})
	m := c.EnableSpot(2.0 / 60)
	m.AddPool(ComputeLiqid, 2, flatSeries(1.212, 0.40))
	return clk, c, m
}

func launchSpot(t *testing.T, c *Cloud, name string) *Instance {
	t.Helper()
	inst, err := c.Launch(LaunchSpec{Project: "lab", Name: name, Flavor: ComputeLiqid, Spot: true})
	if err != nil {
		t.Fatalf("spot launch %s: %v", name, err)
	}
	return inst
}

func TestSpotLaunchRequiresPoolAndCapacity(t *testing.T) {
	clk := simclock.New()
	c := New("s", clk)
	c.AddBareMetal(4, ComputeLiqid)
	c.CreateProject("lab", Quota{Instances: 10, Cores: 1000, RAMGB: 10000})

	_, err := c.Launch(LaunchSpec{Project: "lab", Name: "x", Flavor: ComputeLiqid, Spot: true})
	if !errors.Is(err, ErrSpotDisabled) {
		t.Fatalf("spot launch without market = %v, want ErrSpotDisabled", err)
	}
	m := c.EnableSpot(0.05)
	_, err = c.Launch(LaunchSpec{Project: "lab", Name: "x", Flavor: ComputeLiqid, Spot: true})
	if !errors.Is(err, ErrNoSpotPool) {
		t.Fatalf("spot launch without pool = %v, want ErrNoSpotPool", err)
	}
	m.AddPool(ComputeLiqid, 1, flatSeries(1.212, 0.40))
	inst := launchSpot(t, c, "a")
	if !inst.Spot || inst.Tags.Get("pricing") != "spot" || inst.Tags.Get("pool") != "compute_liqid" {
		t.Fatalf("spot instance not tagged: %+v", inst.Tags)
	}
	_, err = c.Launch(LaunchSpec{Project: "lab", Name: "b", Flavor: ComputeLiqid, Spot: true})
	if !errors.Is(err, ErrNoSpotCapacity) {
		t.Fatalf("over-capacity spot launch = %v, want ErrNoSpotCapacity", err)
	}
	// Deleting the instance frees the slot.
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	launchSpot(t, c, "c")
}

func TestSpotPreemptNoticeThenReclaim(t *testing.T) {
	clk, c, m := spotSite(t)
	a := launchSpot(t, c, "a")
	clk.RunUntil(1)
	b := launchSpot(t, c, "b") // newest: the victim

	var notices []SpotNotice
	m.OnNotice(func(n SpotNotice) { notices = append(notices, n) })

	clk.RunUntil(2)
	if err := m.Preempt("compute_liqid"); err != nil {
		t.Fatal(err)
	}
	if len(notices) != 1 {
		t.Fatalf("notices = %d, want 1", len(notices))
	}
	n := notices[0]
	if n.InstanceID != b.ID {
		t.Fatalf("victim = %s, want newest %s", n.InstanceID, b.ID)
	}
	if n.NoticedAt != 2 || n.ReclaimAt != 2+2.0/60 {
		t.Fatalf("notice times = %v/%v", n.NoticedAt, n.ReclaimAt)
	}
	if b.Running() != true {
		t.Fatal("victim must keep running through the notice window")
	}
	clk.Run()
	if b.State != StateError {
		t.Fatalf("victim state = %v, want ERROR after reclaim", b.State)
	}
	if b.FailedAt != n.ReclaimAt {
		t.Fatalf("metering stopped at %v, want reclaim instant %v", b.FailedAt, n.ReclaimAt)
	}
	if a.State != StateActive {
		t.Fatalf("older instance state = %v, want ACTIVE", a.State)
	}
	preempts, reclaims, vacated := m.Stats()
	if preempts != 1 || reclaims != 1 || vacated != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/0", preempts, reclaims, vacated)
	}
	// The closed meter record is spot-tagged and ends at the reclaim.
	recs := c.Meter().Records(nil)
	found := false
	for _, r := range recs {
		if r.Tags.Get("pricing") == "spot" && r.End == n.ReclaimAt {
			found = true
		}
	}
	if !found {
		t.Fatalf("no spot meter record closed at reclaim; records: %+v", recs)
	}
}

func TestSpotVacateBeforeDeadline(t *testing.T) {
	clk, c, m := spotSite(t)
	launchSpot(t, c, "a")
	b := launchSpot(t, c, "b") // higher ID: the tie-break victim
	m.OnNotice(func(n SpotNotice) {
		// A responsive controller drains and deletes before the deadline.
		if err := c.Delete(n.InstanceID); err != nil {
			t.Errorf("vacate delete: %v", err)
		}
	})
	clk.RunUntil(1)
	if err := m.Preempt("compute_liqid"); err != nil {
		t.Fatal(err)
	}
	clk.Run()
	if b.State != StateDeleted {
		t.Fatalf("state = %v, want DELETED", b.State)
	}
	preempts, reclaims, vacated := m.Stats()
	if preempts != 1 || reclaims != 0 || vacated != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/1", preempts, reclaims, vacated)
	}
}

func TestSpotReleaseRestoresCapacity(t *testing.T) {
	clk, c, m := spotSite(t)
	launchSpot(t, c, "a")
	launchSpot(t, c, "b")
	clk.RunUntil(1)
	if err := m.Preempt("compute_liqid"); err != nil {
		t.Fatal(err)
	}
	clk.Run() // reclaim happens; pool now capacity 1, active 1
	if free, _ := m.FreeCapacity("compute_liqid"); free != 0 {
		t.Fatalf("free = %d, want 0", free)
	}
	if err := m.Release("compute_liqid"); err != nil {
		t.Fatal(err)
	}
	if free, _ := m.FreeCapacity("compute_liqid"); free != 1 {
		t.Fatalf("free after release = %d, want 1", free)
	}
	if err := m.Preempt("no-such-pool"); !errors.Is(err, ErrNoSpotPool) {
		t.Fatalf("preempt unknown pool = %v", err)
	}
	if err := m.Release("no-such-pool"); !errors.Is(err, ErrNoSpotPool) {
		t.Fatalf("release unknown pool = %v", err)
	}
}

// Two preemptions inside one notice window must pick two distinct
// victims: an instance already under notice is not re-noticed.
func TestSpotDoublePreemptDistinctVictims(t *testing.T) {
	clk, c, m := spotSite(t)
	launchSpot(t, c, "a")
	launchSpot(t, c, "b")
	var victims []string
	m.OnNotice(func(n SpotNotice) { victims = append(victims, n.InstanceID) })
	clk.RunUntil(1)
	if err := m.Preempt("compute_liqid"); err != nil {
		t.Fatal(err)
	}
	if err := m.Preempt("compute_liqid"); err != nil {
		t.Fatal(err)
	}
	if len(victims) != 2 || victims[0] == victims[1] {
		t.Fatalf("victims = %v, want two distinct", victims)
	}
	clk.Run()
	preempts, reclaims, _ := m.Stats()
	if preempts != 2 || reclaims != 2 {
		t.Fatalf("stats = %d/%d, want 2/2", preempts, reclaims)
	}
}

func TestSpotPriceSeriesArmsSegmentEvents(t *testing.T) {
	clk := simclock.New()
	c := New("s", clk)
	bus := telemetry.New()
	c.SetTelemetry(bus)
	m := c.EnableSpot(0.05)
	series := cost.SpotPriceSeries{
		OnDemandPerHour: 1.212,
		Segments: []cost.SpotSegment{
			{Start: 0, PerHour: 0.40},
			{Start: 2, PerHour: 0.55},
			{Start: 5, PerHour: 0.30},
		},
	}
	m.AddPool(ComputeLiqid, 2, series)
	if clk.Pending() != 2 { // one event per future boundary
		t.Fatalf("pending = %d, want 2", clk.Pending())
	}
	gauge := telemetry.Labeled("cloud.spot_price", telemetry.String("pool", "compute_liqid"))
	read := func() float64 {
		for _, mt := range bus.Snapshot() {
			if mt.Name == gauge {
				return mt.Value
			}
		}
		return -1
	}
	if read() != 0.40 {
		t.Fatalf("initial gauge = %v, want 0.40", read())
	}
	clk.RunUntil(3)
	if read() != 0.55 {
		t.Fatalf("gauge at t=3 = %v, want 0.55", read())
	}
	clk.Run()
	if read() != 0.30 {
		t.Fatalf("final gauge = %v, want 0.30", read())
	}
}

// Acceptance invariant: enabling the market but adding no pools must be
// bit-identical to never enabling it — same clock event count, same
// telemetry, same instance lifecycle in the log stream.
func TestSpotArmedEmptyBitIdenticalToOff(t *testing.T) {
	run := func(enable bool) (string, int64, string) {
		clk := simclock.New()
		c := New("s", clk)
		bus := telemetry.New()
		c.SetTelemetry(bus)
		lg := logging.New(1, clk.Now)
		c.SetLogging(lg)
		if enable {
			c.EnableSpot(2.0 / 60)
		}
		c.AddVMCapacity(2, 48, 256)
		c.CreateProject("lab", Quota{Instances: 10, Cores: 100, RAMGB: 1000})
		for i := 0; i < 3; i++ {
			inst, err := c.Launch(LaunchSpec{Project: "lab", Name: fmt.Sprintf("vm-%d", i), Flavor: M1Large})
			if err != nil {
				t.Fatal(err)
			}
			c.DeleteAt(inst.ID, float64(i)+1.5)
		}
		clk.Run()
		var metrics string
		for _, mt := range bus.Snapshot() {
			metrics += fmt.Sprintf("%s=%v;", mt.Name, mt.Value)
		}
		return metrics, clk.Executed(), logging.Render(lg.Records(0))
	}
	offMetrics, offEvents, offLogs := run(false)
	onMetrics, onEvents, onLogs := run(true)
	if offLogs == "" {
		t.Fatal("the instance lifecycle left no log records")
	}
	if offMetrics != onMetrics || offEvents != onEvents || offLogs != onLogs {
		t.Fatalf("armed-but-empty differs from off:\noff: %q %d\n%s\non:  %q %d\n%s",
			offMetrics, offEvents, offLogs, onMetrics, onEvents, onLogs)
	}
}

func TestSpotPoolsViewSortedAndPriced(t *testing.T) {
	clk := simclock.New()
	c := New("s", clk)
	m := c.EnableSpot(0.05)
	m.AddPool(GPUA100PCIe, 2, flatSeries(3.307, 1.16))
	m.AddPool(ComputeLiqid, 3, flatSeries(1.212, 0.40))
	want := []SpotPoolView{
		{Pool: "compute_liqid", Capacity: 3, Active: 0, SpotPerHour: 0.40, OnDemandPerHour: 1.212},
		{Pool: "gpu_a100_pcie", Capacity: 2, Active: 0, SpotPerHour: 1.16, OnDemandPerHour: 3.307},
	}
	for i := 0; i < 20; i++ {
		if got := m.Pools(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Pools() = %+v, want %+v", got, want)
		}
	}
	if p, ok := m.PriceAt("gpu_a100_pcie", 0); !ok || p != 1.16 {
		t.Fatalf("PriceAt = %v,%v", p, ok)
	}
	if _, ok := m.PriceAt("nope", 0); ok {
		t.Fatal("PriceAt unknown pool should report !ok")
	}
}

package cloud

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

// Regression: Meter.Open used to store the caller's tag map by
// reference, so mutating the map after the call silently rewrote the
// attribution of usage already metered.
func TestMeterOpenCopiesTags(t *testing.T) {
	m := &Meter{}
	tags := map[string]string{"lab": "lab2", "student": "s001"}
	m.Open(UsageInstance, "class", "m1.medium", tags, 1, 0)
	tags["lab"] = "lab3"
	delete(tags, "student")
	recs := m.Records(nil)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Tags["lab"] != "lab2" || recs[0].Tags["student"] != "s001" {
		t.Errorf("record tags mutated through caller's map: %v", recs[0].Tags)
	}
	if got := m.HoursByTag(1, UsageInstance, "lab"); got["lab2"] != 1 || got["lab3"] != 0 {
		t.Errorf("HoursByTag sees mutated tags: %v", got)
	}
}

// Regression: Records used to return live pointers, so a Close racing an
// aggregation loop would mutate End mid-sweep.
func TestRecordsReturnsSnapshots(t *testing.T) {
	c, clk := newTestCloud()
	inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small,
		Tags: map[string]string{"lab": "lab1"}})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(5)
	recs := c.Meter().Records(nil)
	if len(recs) != 1 || recs[0].End != -1 {
		t.Fatalf("want one open record, got %+v", recs)
	}
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	// The snapshot taken before Delete must still show an open record.
	if recs[0].End != -1 {
		t.Errorf("snapshot End mutated by later Close: %v", recs[0].End)
	}
	// Mutating the snapshot must not leak back into the meter.
	recs[0].Tags["lab"] = "tampered"
	recs[0].Project = "tampered"
	fresh := c.Meter().Records(nil)
	if fresh[0].Tags["lab"] != "lab1" || fresh[0].Project != "class" {
		t.Errorf("snapshot mutation leaked into meter: %+v", fresh[0])
	}
	if fresh[0].End != 5 {
		t.Errorf("fresh record End = %v, want 5", fresh[0].End)
	}
}

func TestCloudTelemetryLifecycle(t *testing.T) {
	bus := telemetry.New()
	c, clk := newTestCloud()
	c.SetTelemetry(bus)

	inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Medium,
		Tags: map[string]string{"lab": "lab2"}})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(3)
	if err := c.Delete(inst.ID); err != nil {
		t.Fatal(err)
	}
	// Quota rejection: ask for more instances than the project allows.
	q := Quota{Instances: 0}
	c.CreateProject("tiny", q)
	if _, err := c.Launch(LaunchSpec{Project: "tiny", Flavor: M1Small}); err == nil {
		t.Fatal("expected quota rejection")
	}

	snap := bus.Snapshot()
	for name, want := range map[string]float64{
		"cloud.launches":         1,
		"cloud.deletes":          1,
		"cloud.quota_rejections": 1,
		"cloud.meter.opened":     1,
		"cloud.meter.closed":     1,
	} {
		m, ok := telemetry.Find(snap, name)
		if !ok || m.Value != want {
			t.Errorf("%s = %v (found=%v), want %v", name, m.Value, ok, want)
		}
	}
	if m, _ := telemetry.Find(snap, "cloud.instances_active"); m.Value != 0 {
		t.Errorf("instances_active gauge = %v, want 0 after delete", m.Value)
	}
	hist, ok := telemetry.Find(snap, "cloud.instance_hours")
	if !ok || hist.Count != 1 || hist.Sum != 3 {
		t.Errorf("instance_hours = %+v, want 1 observation of 3h", hist)
	}

	var spans []string
	for _, e := range bus.Events(0) {
		spans = append(spans, e.Span)
	}
	want := []string{"cloud.instance.launch", "cloud.instance.delete", "cloud.quota.reject"}
	if len(spans) != len(want) {
		t.Fatalf("events = %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("event %d = %s, want %s", i, spans[i], want[i])
		}
	}
	evs := bus.Events(0)
	if evs[0].Attr("id") != inst.ID || evs[1].Attr("hours") != "3" {
		t.Errorf("launch/delete attrs wrong: %v / %v", evs[0], evs[1])
	}
}

// With no bus attached, Launch and Delete build no metric names,
// attributes or bucket slices: what is left is the instance, its ID,
// its tags, and its meter record with a copy of them.
func TestLaunchDeleteWithoutBusAllocs(t *testing.T) {
	c, _ := newTestCloud()
	launchDelete := func() {
		inst, err := c.Launch(LaunchSpec{Project: "class", Name: "lab", Flavor: M1Medium})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	// The fewest over many single runs leaves out the amortized growth of
	// the cloud's maps and the sync.Pool misses inside fmt, which the race
	// detector makes random.
	fewest := math.Inf(1)
	for i := 0; i < 50; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, launchDelete))
	}
	if fewest > 6 {
		t.Errorf("Launch+Delete without a bus: %v allocs, want <= 6", fewest)
	}
}

package cloud

import (
	"math"
	"testing"

	"repro/internal/logging"
	"repro/internal/telemetry"
)

// Regression: Meter.Open used to store the caller's tag map by
// reference, so mutating the map after the call silently rewrote the
// attribution of usage already metered. Tags cannot be written, and
// NewTags copies the caller's pairs, so rewriting them afterwards must
// not reach the record.
func TestMeterOpenCopiesTags(t *testing.T) {
	m := &Meter{}
	kv := []string{"lab", "lab2", "student", "s001"}
	m.Open(UsageInstance, "class", "m1.medium", NewTags(kv...), 1, 0)
	kv[1], kv[3] = "lab3", "s002"
	recs := m.Records(nil)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Tags.Get("lab") != "lab2" || recs[0].Tags.Get("student") != "s001" {
		t.Errorf("record tags mutated through caller's pairs: %v", recs[0].Tags)
	}
}

// Records(nil) copies each record, tags included, by value: over 100
// tagged records its result is its one allocation (copying each
// record's tag map made it 208).
func TestRecordsAllocatesOnlyItsResult(t *testing.T) {
	m := &Meter{}
	tags := NewTags("lab", "lab2", "student", "s001")
	for i := 0; i < 100; i++ {
		m.Open(UsageInstance, "class", "m1.medium", tags, 1, float64(i))
	}
	if got := testing.AllocsPerRun(100, func() { m.Records(nil) }); got != 1 {
		t.Errorf("Records(nil) over 100 tagged records: %v allocs, want 1", got)
	}
}

// Regression: Records used to return live pointers, so a Close racing an
// aggregation loop would mutate End mid-sweep.
func TestRecordsReturnsSnapshots(t *testing.T) {
	c, clk := newTestCloud()
	inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Small,
		Tags: NewTags("lab", "lab1")})
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
	recs[0].Project = "tampered"
	fresh := c.Meter().Records(nil)
	if fresh[0].Tags.Get("lab") != "lab1" || fresh[0].Project != "class" {
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
	lg := logging.New(1, clk.Now)
	c.SetLogging(lg)

	inst, err := c.Launch(LaunchSpec{Project: "class", Flavor: M1Medium,
		Tags: NewTags("lab", "lab2")})
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

	// The lifecycle's audit trail is the log stream, in order.
	recs := lg.Records(0)
	var msgs []string
	for _, r := range recs {
		msgs = append(msgs, r.Msg)
	}
	want := []string{"instance active", "instance deleted", "launch rejected: quota"}
	if len(msgs) != len(want) {
		t.Fatalf("log records = %q, want %q", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, msgs[i], want[i])
		}
	}
	if recs[0].Attr("id") != inst.ID || recs[1].Attr("id") != inst.ID ||
		recs[1].Attr("hours") != "3" || recs[1].T != 3 || recs[2].Attr("project") != "tiny" {
		t.Errorf("launch/delete/reject records wrong:\n%s", logging.Render(recs))
	}
}

// The labeled instrument names a Cloud keeps are those telemetry.Labeled
// builds, one per flavor, and for launches one per flavor and project.
func TestLabeledNamesPerFlavorAndProject(t *testing.T) {
	bus := telemetry.New()
	c, clk := newTestCloud()
	c.SetTelemetry(bus)
	c.CreateProject("other", CourseQuota())
	var ids []string
	for _, l := range []struct {
		project string
		flavor  Flavor
	}{{"class", M1Medium}, {"class", M1Medium}, {"other", M1Medium}, {"class", M1Small}} {
		inst, err := c.Launch(LaunchSpec{Project: l.project, Flavor: l.flavor})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}
	clk.RunUntil(2)
	if err := c.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.FailHost("kvm@test-hv-000"); err != nil {
		t.Fatal(err)
	}
	snap := bus.Snapshot()
	flavor := func(f Flavor) telemetry.Attr { return telemetry.String("flavor", f.Name) }
	project := func(p string) telemetry.Attr { return telemetry.String("project", p) }
	for name, want := range map[string]float64{
		telemetry.Labeled("cloud.launches", flavor(M1Medium), project("class")): 2,
		telemetry.Labeled("cloud.launches", flavor(M1Medium), project("other")): 1,
		telemetry.Labeled("cloud.launches", flavor(M1Small), project("class")):  1,
		telemetry.Labeled("cloud.instances_active", flavor(M1Medium)):           0,
		telemetry.Labeled("cloud.instances_active", flavor(M1Small)):            0,
		telemetry.Labeled("cloud.instance_failures", flavor(M1Medium)):          2,
		telemetry.Labeled("cloud.instance_failures", flavor(M1Small)):           1,
	} {
		if m, ok := telemetry.Find(snap, name); !ok || m.Value != want {
			t.Errorf("%s = %v (found=%v), want %v", name, m.Value, ok, want)
		}
	}
	for f, want := range map[Flavor]int64{M1Medium: 3, M1Small: 1} {
		name := telemetry.Labeled("cloud.instance_hours", flavor(f))
		if m, ok := telemetry.Find(snap, name); !ok || m.Count != want {
			t.Errorf("%s count = %v (found=%v), want %v", name, m.Count, ok, want)
		}
	}
}

// With no bus attached, Launch and Delete build no metric names,
// attributes or bucket slices: what is left is the instance, its ID and
// its meter record.
func TestLaunchDeleteWithoutBusAllocs(t *testing.T) {
	c, _ := newTestCloud()
	if got := launchDeleteAllocs(t, c, Tags{}); got > 3 {
		t.Errorf("Launch+Delete without a bus: %v allocs, want <= 3", got)
	}
}

// A tagged launch shares the caller's tags with its instance and meter
// record instead of copying them, so it allocates what a tagless one
// does (two map copies made it 7).
func TestTaggedLaunchDeleteAllocs(t *testing.T) {
	c, _ := newTestCloud()
	if got := launchDeleteAllocs(t, c, NewTags("lab", "lab2", "student", "s001")); got > 3 {
		t.Errorf("tagged Launch+Delete: %v allocs, want <= 3", got)
	}
}

// With a bus attached, a flavor's labeled instrument names are built on
// its first launch and kept, so later launches allocate what they do
// without a bus.
func TestLaunchDeleteWithBusAllocs(t *testing.T) {
	c, _ := newTestCloud()
	c.SetTelemetry(telemetry.New())
	if got := launchDeleteAllocs(t, c, Tags{}); got > 3 {
		t.Errorf("Launch+Delete with a bus: %v allocs, want <= 3", got)
	}
}

// launchDeleteAllocs returns the fewest allocations of one Launch and
// Delete of an m1.medium with the given tags, after a first launch of
// that flavor.
func launchDeleteAllocs(t *testing.T, c *Cloud, tags Tags) float64 {
	t.Helper()
	launchDelete := func() {
		inst, err := c.Launch(LaunchSpec{Project: "class", Name: "lab", Flavor: M1Medium, Tags: tags})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	launchDelete()
	// The fewest over many single runs leaves out the amortized growth of
	// the cloud's maps and slices, and the sync.Pool misses the race
	// detector makes random.
	fewest := math.Inf(1)
	for i := 0; i < 50; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, launchDelete))
	}
	return fewest
}

package lease

import (
	"strings"
	"testing"

	"repro/internal/logging"
	"repro/internal/telemetry"
)

// Host failure racing Blazar-style auto-termination: a leased node dies
// mid-window, then the lease-end auto-delete fires on the wreck. Capacity
// and quota must be freed exactly once, and metering must stop at the
// failure instant rather than the lease end.
func TestHostFailureMidLeaseDoesNotDoubleFree(t *testing.T) {
	s, cl, clk := newSvc()
	tel := telemetry.New()
	s.SetTelemetry(tel)
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 1, End: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(2)
	inst, err := cl.Get(r.InstanceID)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.FailHost(inst.Host); err != nil {
		t.Fatal(err)
	}
	p, _ := cl.GetProject("class")
	if p.Usage.Instances != 0 || p.Usage.Cores != 0 || p.Usage.RAMGB != 0 {
		t.Fatalf("quota not released at failure: %+v", p.Usage)
	}
	// Run past the reservation end: the Blazar auto-delete and the expire
	// event both fire against the already-errored instance.
	clk.RunUntil(5)
	if p.Usage.Instances != 0 || p.Usage.Cores != 0 || p.Usage.RAMGB != 0 {
		t.Fatalf("auto-termination double-freed quota: %+v", p.Usage)
	}
	if got := inst.HoursAt(clk.Now()); got != 1 {
		t.Fatalf("HoursAt = %v, want 1 (metering stops at host failure)", got)
	}
	if got := cl.Meter().TotalHours(clk.Now(), nil); got != 1 {
		t.Fatalf("metered hours = %v, want 1", got)
	}
	// Host capacity was freed exactly once: after recovery the node is
	// immediately reservable and launchable again.
	if err := cl.RecoverHost(inst.Host); err != nil {
		t.Fatal(err)
	}
	r2, err := s.Book(Spec{Project: "class", User: "s002", NodeType: "gpu_a100_pcie",
		Start: 6, End: 8})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(7)
	inst2, err := cl.Get(r2.InstanceID)
	if err != nil {
		t.Fatalf("post-recovery lease did not activate: %v", err)
	}
	if !inst2.Running() {
		t.Fatal("post-recovery instance not running")
	}
	if tel.Counter("lease.launch_failures").Value() != 0 {
		t.Fatal("unexpected launch failures in recovery path")
	}
}

// A reservation whose node pool is entirely down at activation time must
// degrade gracefully (a counted and logged launch failure), not panic the
// simulation. This is the Chameleon "reserved node died before your slot"
// scenario.
func TestLaunchFailureOnDownedPoolIsGraceful(t *testing.T) {
	s, cl, clk := newSvc()
	tel := telemetry.New()
	s.SetTelemetry(tel)
	lg := logging.New(1, clk.Now)
	s.SetLogging(lg)
	// Down every node in the pool before the lease starts.
	for _, h := range cl.Hosts() {
		if err := cl.FailHost(h.Name); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 1, End: 3})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(4) // must not panic on the unlaunchable activation
	if r.InstanceID != "" {
		t.Fatalf("reservation activated on a downed pool: %s", r.InstanceID)
	}
	if got := tel.Counter("lease.launch_failures").Value(); got != 1 {
		t.Fatalf("lease.launch_failures = %d, want 1", got)
	}
	found := false
	for _, rec := range lg.Records(0) {
		if rec.Msg == "reserved node failed to activate" {
			found = true
			if reason := rec.Attr("reason"); !strings.Contains(reason, "capacity") {
				t.Fatalf("activation failure reason = %q, want a capacity error", reason)
			}
		}
	}
	if !found {
		t.Fatal("no activation-failure log record")
	}
}

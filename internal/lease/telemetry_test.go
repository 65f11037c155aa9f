package lease

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/telemetry"
)

// Regression: Book used to store the caller's tag map by reference, so
// reusing one map across bookings (the studentsim pattern) retroactively
// re-attributed earlier reservations and their metered usage.
func TestBookCopiesTags(t *testing.T) {
	s, cl, clk := newSvc()
	tags := map[string]string{"lab": "lab4", "student": "s001"}
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 1, End: 3, Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	// Caller reuses its map for the next student.
	tags["student"] = "s002"
	tags["lab"] = "lab5"
	if r.Tags["student"] != "s001" || r.Tags["lab"] != "lab4" {
		t.Errorf("reservation tags mutated through caller's map: %v", r.Tags)
	}
	// Attribution must hold through activation and metering too.
	clk.RunUntil(4)
	byLab := cl.Meter().HoursByTag(clk.Now(), cloud.UsageInstance, "lab")
	if byLab["lab4"] != 2 || byLab["lab5"] != 0 {
		t.Errorf("metered attribution corrupted: %v", byLab)
	}
}

// Regression: booking a window that starts before the current virtual
// time used to panic the clock when the start event was scheduled; it
// must surface as a booking error instead.
func TestBookRejectsPastStart(t *testing.T) {
	s, _, clk := newSvc()
	clk.RunUntil(3)
	_, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 2, End: 6})
	if !errors.Is(err, ErrPastStart) {
		t.Fatalf("Book(past start) err = %v, want ErrPastStart", err)
	}
	// Start exactly at the current time is still a valid booking.
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 3, End: 6}); err != nil {
		t.Fatalf("Book(start == now) err = %v", err)
	}
}

func TestLeaseTelemetryLifecycle(t *testing.T) {
	bus := telemetry.New()
	s, _, clk := newSvc()
	s.SetTelemetry(bus)
	lg := logging.New(1, clk.Now)
	s.SetLogging(lg)

	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 2, End: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A rejection: window outside any node's availability (double-book
	// both nodes, then a third).
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 2, End: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 2, End: 5}); err == nil {
		t.Fatal("expected ErrNoNodeFree")
	}
	clk.RunUntil(10)

	snap := bus.Snapshot()
	for name, want := range map[string]float64{
		"lease.bookings":    2,
		"lease.rejections":  1,
		"lease.activations": 2,
		"lease.expiries":    2,
	} {
		m, ok := telemetry.Find(snap, name)
		if !ok || m.Value != want {
			t.Errorf("%s = %v (found=%v), want %v", name, m.Value, ok, want)
		}
	}
	dur, ok := telemetry.Find(snap, "lease.duration_hours")
	if !ok || dur.Count != 2 || dur.Sum != 6 {
		t.Errorf("duration histogram = %+v, want 2 observations summing 6", dur)
	}

	var gotBook, gotActivate, gotExpire bool
	for _, rec := range lg.Records(0) {
		if rec.Attr("id") != r.ID {
			continue
		}
		switch rec.Msg {
		case "reservation booked":
			gotBook = true
		case "reservation active":
			if rec.Attr("instance") == "" || rec.T != 2 {
				t.Errorf("activate record = %s, want an instance at t=2", rec.String())
			}
			gotActivate = true
		case "reservation expired":
			if rec.T != 5 {
				t.Errorf("expire at t=%v, want 5", rec.T)
			}
			gotExpire = true
		}
	}
	if !gotBook || !gotActivate || !gotExpire {
		t.Errorf("lifecycle records missing: book=%v activate=%v expire=%v",
			gotBook, gotActivate, gotExpire)
	}
}

func TestCancelledLeaseDoesNotExpire(t *testing.T) {
	bus := telemetry.New()
	s, _, clk := newSvc()
	s.SetTelemetry(bus)
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 1, End: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(2) // activated
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(10)
	snap := bus.Snapshot()
	if m, _ := telemetry.Find(snap, "lease.cancellations"); m.Value != 1 {
		t.Errorf("cancellations = %v, want 1", m.Value)
	}
	if m, _ := telemetry.Find(snap, "lease.expiries"); m.Value != 0 {
		t.Errorf("expiries = %v, want 0 for a cancelled lease", m.Value)
	}
}

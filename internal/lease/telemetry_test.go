package lease

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/telemetry"
)

// Regression: Book used to store the caller's tag map by reference, so
// reusing one map across bookings (the studentsim pattern) retroactively
// re-attributed earlier reservations and their metered usage. A caller
// that rewrites the pairs it built its tags from must not reach them.
func TestBookCopiesTags(t *testing.T) {
	s, cl, clk := newSvc()
	kv := []string{"lab", "lab4", "student", "s001"}
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 1, End: 3, Tags: cloud.NewTags(kv...)})
	if err != nil {
		t.Fatal(err)
	}
	// Caller reuses its pairs for the next student.
	kv[1], kv[3] = "lab5", "s002"
	if r.Tags.Get("student") != "s001" || r.Tags.Get("lab") != "lab4" {
		t.Errorf("reservation tags mutated through caller's pairs: %v", r.Tags)
	}
	// Attribution must hold through activation and metering too.
	clk.RunUntil(4)
	byLab := func(lab string) float64 {
		return cl.Meter().TotalHours(clk.Now(), func(r *cloud.UsageRecord) bool {
			return r.Kind == cloud.UsageInstance && r.Tags.Get("lab") == lab
		})
	}
	if byLab("lab4") != 2 || byLab("lab5") != 0 {
		t.Errorf("metered attribution corrupted: lab4 %v h, lab5 %v h", byLab("lab4"), byLab("lab5"))
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

// Regression: Book tested End <= Start and Start < now, which are both
// false for NaN, so it accepted non-finite windows.
func TestBookRejectsNonFiniteWindows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range [][2]float64{{nan, nan}, {nan, 3}, {1, nan}, {0, inf}} {
		s, _, _ := newSvc()
		_, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: w[0], End: w[1]})
		if !errors.Is(err, ErrBadWindow) {
			t.Errorf("Book([%v, %v)) err = %v, want ErrBadWindow", w[0], w[1], err)
		}
	}
}

// Regression: an accepted [NaN, NaN) booking scheduled NaN clock events,
// which broke the event heap's order, so no later lease ever activated.
func TestNaNBookingDoesNotStallLaterLeases(t *testing.T) {
	s, cl, clk := newSvc()
	nan := math.NaN()
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: nan, End: nan})
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 1, End: 2}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(5)
	if got := cl.Meter().TotalHours(clk.Now(), nil); got != 1 {
		t.Fatalf("metered hours = %v, want exactly 1", got)
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

package lease

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

func newSvc() (*Service, *cloud.Cloud, *simclock.Clock) {
	clk := simclock.New()
	cl := cloud.New("chi@test", clk)
	cl.CreateProject("class", cloud.CourseQuota())
	s := New(clk, cl)
	s.AddPool(cloud.GPUA100PCIe, 2)
	return s, cl, clk
}

func TestBookAndAutoTerminate(t *testing.T) {
	s, cl, clk := newSvc()
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 2, End: 5, Tags: cloud.NewTags("lab", "lab4")})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(3)
	inst, err := cl.Get(r.InstanceID)
	if err != nil {
		t.Fatalf("instance not launched at reservation start: %v", err)
	}
	if !inst.Running() {
		t.Fatal("instance not running mid-reservation")
	}
	clk.RunUntil(6)
	if inst.Running() {
		t.Fatal("instance not auto-terminated at reservation end")
	}
	if got := inst.HoursAt(clk.Now()); got != 3 {
		t.Errorf("leased instance hours = %v, want exactly 3 (auto-termination)", got)
	}
}

func TestNoDoubleBooking(t *testing.T) {
	s, _, _ := newSvc()
	// Pool has 2 nodes; book both for an overlapping window.
	for i := 0; i < 2; i++ {
		if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 10, End: 13}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 11, End: 12})
	if !errors.Is(err, ErrNoNodeFree) {
		t.Errorf("third overlapping booking err = %v, want ErrNoNodeFree", err)
	}
	// Adjacent (non-overlapping) window succeeds: [13,15) touches [10,13).
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 13, End: 15}); err != nil {
		t.Errorf("adjacent booking failed: %v", err)
	}
}

func TestBadWindowAndMissingPool(t *testing.T) {
	s, _, _ := newSvc()
	if _, err := s.Book(Spec{NodeType: "gpu_a100_pcie", Start: 5, End: 5}); !errors.Is(err, ErrBadWindow) {
		t.Errorf("zero window err = %v", err)
	}
	if _, err := s.Book(Spec{NodeType: "gpu_h100", Start: 1, End: 2}); !errors.Is(err, ErrNoPool) {
		t.Errorf("missing pool err = %v", err)
	}
}

func TestStaffHolds(t *testing.T) {
	s, _, _ := newSvc()
	if err := s.AddStaffHold("gpu_a100_pcie", 100, 268); err != nil { // one week
		t.Fatal(err)
	}
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 50, End: 53}); !errors.Is(err, ErrOutsideHold) {
		t.Errorf("booking outside hold err = %v, want ErrOutsideHold", err)
	}
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 120, End: 123}); err != nil {
		t.Errorf("booking inside hold failed: %v", err)
	}
	// Straddling the hold edge is rejected.
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 266, End: 270}); !errors.Is(err, ErrOutsideHold) {
		t.Errorf("straddling booking err = %v", err)
	}
}

func TestFindSlotSkipsBusyWindows(t *testing.T) {
	s, _, _ := newSvc()
	// Fill both nodes over [0, 10).
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 10})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 10})
	start, err := s.FindSlot("gpu_a100_pcie", 0, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if start != 10 {
		t.Errorf("FindSlot = %v, want 10 (first free boundary)", start)
	}
	// Horizon too tight: no slot.
	if _, err := s.FindSlot("gpu_a100_pcie", 0, 3, 9); !errors.Is(err, ErrNoNodeFree) {
		t.Errorf("horizon-limited FindSlot err = %v", err)
	}
}

func TestFindSlotRespectsHolds(t *testing.T) {
	s, _, _ := newSvc()
	_ = s.AddStaffHold("gpu_a100_pcie", 50, 60)
	start, err := s.FindSlot("gpu_a100_pcie", 0, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if start != 50 {
		t.Errorf("FindSlot = %v, want 50 (hold start)", start)
	}
}

func TestBookEarliest(t *testing.T) {
	s, _, clk := newSvc()
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 4})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 6})
	r, err := s.BookEarliest(Spec{Project: "class", User: "s1", NodeType: "gpu_a100_pcie", Start: 0}, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 4 || r.End != 7 {
		t.Errorf("earliest slot = [%v, %v), want [4, 7)", r.Start, r.End)
	}
	clk.Run()
}

func TestNoOverlapProperty(t *testing.T) {
	// Property: whatever sequence of bookings succeeds, no node ever has
	// two overlapping reservations.
	type req struct {
		Start uint8
		Len   uint8
	}
	f := func(reqs []req) bool {
		clk := simclock.New()
		s := New(clk, nil)
		s.AddPool(cloud.GPUV100, 3)
		for _, q := range reqs {
			start := float64(q.Start % 100)
			end := start + float64(q.Len%8) + 1
			_, _ = s.Book(Spec{Project: "p", NodeType: "gpu_v100", Start: start, End: end})
		}
		for _, list := range s.pools["gpu_v100"].byNode {
			for i := 0; i < len(list); i++ {
				for j := i + 1; j < len(list); j++ {
					if overlaps(list[i].Start, list[i].End, list[j].Start, list[j].End) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBook(b *testing.B) {
	clk := simclock.New()
	s := New(clk, nil)
	s.AddPool(cloud.GPUV100, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := float64(i * 3)
		if _, err := s.Book(Spec{Project: "p", NodeType: "gpu_v100", Start: start, End: start + 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFindSlotIsEarliest is the optimality property: for random booking
// patterns, FindSlot returns a feasible start and no strictly earlier
// feasible start exists (checked by brute force on a time grid).
func TestFindSlotIsEarliest(t *testing.T) {
	type booking struct {
		Start uint8
		Len   uint8
	}
	f := func(bookings []booking, durRaw uint8) bool {
		clk := simclock.New()
		s := New(clk, nil)
		s.AddPool(cloud.GPUP100, 2)
		for _, b := range bookings {
			start := float64(b.Start % 80)
			end := start + float64(b.Len%6) + 1
			_, _ = s.Book(Spec{Project: "p", NodeType: "gpu_p100", Start: start, End: end})
		}
		dur := float64(durRaw%5) + 1
		const horizon = 200.0
		got, err := s.FindSlot("gpu_p100", 0, dur, horizon)
		if err != nil {
			return false // pool of 2 over horizon 200 always has room
		}
		// Feasibility of the returned slot.
		free := func(start float64) bool {
			for _, n := range []string{"gpu_p100-00", "gpu_p100-01"} {
				conflict := false
				for _, r := range s.pools["gpu_p100"].byNode[n] {
					if start < r.End && r.Start < start+dur {
						conflict = true
						break
					}
				}
				if !conflict {
					return true
				}
			}
			return false
		}
		if !free(got) {
			return false
		}
		// No strictly earlier feasible start on a fine grid.
		for tt := 0.0; tt < got-1e-9; tt += 0.5 {
			if free(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package lease

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

// findSlotRef is the original slot search, kept as the reference for
// FuzzFindSlot: collect every candidate start (earliest, every booking
// end and every hold start at or after it), sort them, and return the
// first at which some node is free.
func findSlotRef(s *Service, nodeType string, earliest, duration, horizon float64) (float64, error) {
	p, ok := s.pools[nodeType]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoPool, nodeType)
	}
	cands := []float64{earliest}
	for _, list := range p.byNode {
		for _, r := range list {
			if r.End >= earliest {
				cands = append(cands, r.End)
			}
		}
	}
	for _, h := range p.holds {
		if h.start >= earliest {
			cands = append(cands, h.start)
		}
	}
	sort.Float64s(cands)
	for _, start := range cands {
		if start < earliest || start+duration > horizon {
			continue
		}
		if len(p.holds) > 0 && !insideAnyHold(p.holds, start, start+duration) {
			continue
		}
		for _, n := range p.nodes {
			free := true
			for _, r := range p.byNode[n] {
				if overlaps(start, start+duration, r.Start, r.End) {
					free = false
					break
				}
			}
			if free {
				return start, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: %s for %.1fh before %.1f", ErrNoNodeFree, nodeType, duration, horizon)
}

// fuzzPool builds the pool one FuzzFindSlot case describes: 1–3 nodes,
// a booking attempt per (start, length) byte pair in bookings (one that
// finds no free node is dropped), then a staff hold per pair in holds.
// Holds come last so bookings may lie outside them. Times are tenths of
// an hour, so window ends round as real ones do.
func fuzzPool(nodes uint8, holds, bookings []byte) *Service {
	s := New(simclock.New(), nil)
	s.AddPool(cloud.GPUP100, int(nodes%3)+1)
	for i := 0; i+1 < len(bookings); i += 2 {
		start := float64(bookings[i]) / 10
		_, _ = s.Book(Spec{Project: "p", NodeType: "gpu_p100",
			Start: start, End: start + float64(bookings[i+1]%40+1)/10})
	}
	for i := 0; i+1 < len(holds); i += 2 {
		start := float64(holds[i]) / 10
		_ = s.AddStaffHold("gpu_p100", start, start+float64(holds[i+1])/10)
	}
	return s
}

// FuzzFindSlot checks the node-by-node search against the reference
// scan: both must agree on whether a slot exists and return bit-equal
// starts. testdata/fuzz/FuzzFindSlot holds one case per edge: bookings
// sharing a boundary, a window straddling a hold's end, start+duration
// landing exactly on the horizon, and every node busy past the horizon.
func FuzzFindSlot(f *testing.F) {
	f.Add(uint8(2), []byte{0, 80, 100, 60}, []byte{5, 12, 9, 30, 40, 7, 41, 3, 60, 25}, uint8(3), uint8(14), uint16(250))
	f.Fuzz(func(t *testing.T, nodes uint8, holds, bookings []byte, earliest, duration uint8, horizon uint16) {
		s := fuzzPool(nodes, holds, bookings)
		e, d, h := float64(earliest)/10, float64(duration%60)/10, float64(horizon%400)/10
		got, err := s.FindSlot("gpu_p100", e, d, h)
		want, werr := findSlotRef(s, "gpu_p100", e, d, h)
		if (err != nil) != (werr != nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FindSlot(%v, %v, %v) = %v, %v; reference %v, %v\nbookings %v\nholds %v",
				e, d, h, got, err, want, werr, s.pools["gpu_p100"].byNode, s.pools["gpu_p100"].holds)
		}
	})
}

// BookEarliest searches and books in one critical section: concurrent
// callers on a one-node pool must all get a slot, and no two the same.
func TestBookEarliestConcurrent(t *testing.T) {
	const callers = 16
	for trial := 0; trial < 200; trial++ {
		s := New(simclock.New(), nil)
		s.AddPool(cloud.GPUP100, 1)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[g] = s.BookEarliest(Spec{Project: "p", NodeType: "gpu_p100"}, 1, 1000)
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("trial %d caller %d: %v", trial, g, err)
			}
		}
		rs := s.pools["gpu_p100"].byNode["gpu_p100-00"]
		if len(rs) != callers {
			t.Fatalf("trial %d: %d reservations, want %d", trial, len(rs), callers)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i-1].End > rs[i].Start {
				t.Fatalf("trial %d: [%v, %v) overlaps [%v, %v)", trial,
					rs[i-1].Start, rs[i-1].End, rs[i].Start, rs[i].End)
			}
		}
	}
}

// FindSlot's cost follows the bookings it must step over, not what the
// pool has held: with ten weeks of bookings on the calendar, a search
// that finds a slot allocates what it does on an empty pool.
func TestFindSlotAllocsIgnoreHistory(t *testing.T) {
	const weeks = 10 * 168.0
	empty := New(simclock.New(), nil)
	empty.AddPool(cloud.GPUP100, 2)
	busy := New(simclock.New(), nil)
	busy.AddPool(cloud.GPUP100, 2)
	// Two-hour bookings on both nodes with a free hour before each.
	for h := 0.0; h < weeks; h += 3 {
		for n := 0; n < 2; n++ {
			if _, err := busy.Book(Spec{Project: "p", NodeType: "gpu_p100", Start: h + 1, End: h + 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := func(s *Service, earliest float64) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := s.FindSlot("gpu_p100", earliest, 1, earliest+168); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, earliest := range []float64{0, weeks} {
		if e, b := allocs(empty, earliest), allocs(busy, earliest); b != e {
			t.Errorf("FindSlot from %vh: %v allocs with ten weeks booked, %v on an empty pool", earliest, b, e)
		}
	}
}

package logging

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// rangeRef is Logger.Range as it was before each ring was filtered in
// place: copy every retained record, sort them all by sequence, then
// keep the window. Kept as the reference for TestRangeMatchesReference.
func rangeRef(l *Logger, from, to float64) []Record {
	var all []Record
	for _, c := range l.components() {
		all = append(all, c.Records()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	var out []Record
	for _, r := range all {
		if r.T >= from && r.T <= to {
			out = append(out, r)
		}
	}
	return out
}

// rangeFixture emits before, in and after records per component. The
// before records sit at 0–9 h, the in records at 100–101 h (several at
// each instant, so the window bounds land exactly on records) and the
// after records at 200 h. A component's before count above its ring
// size wraps the ring.
func rangeFixture(before, in, after int) *Logger {
	now := 0.0
	l := New(1, func() float64 { return now })
	comps := []*Component{l.Component("cloud"), l.Component("alert"), l.Component("orchestrator")}
	emit := func(n int, at func(i int) float64) {
		for i := 0; i < n; i++ {
			now = at(i)
			comps[i%len(comps)].Warn("event", Int("i", i), Float("t", now))
		}
	}
	emit(before, func(i int) float64 { return float64(i%40) / 4 })
	emit(in, func(i int) float64 { return 100 + float64(i%5)/4 })
	emit(after, func(int) float64 { return 200 })
	return l
}

func TestRangeMatchesReference(t *testing.T) {
	for _, l := range []*Logger{
		rangeFixture(0, 0, 0),
		rangeFixture(30, 12, 3),
		rangeFixture(3000, 40, 10), // every ring wraps
	} {
		for _, w := range [][2]float64{
			{100, 101}, {100.25, 100.75}, {100.25, 100.25}, {0, 9.75}, {5, 150},
			{-1, 1000}, {101, 100}, {300, 400}, {-10, -1},
			{math.Inf(-1), math.Inf(1)}, {math.NaN(), 1000}, {0, math.NaN()},
		} {
			got, want := l.Range(w[0], w[1]), rangeRef(l, w[0], w[1])
			if !slices.Equal(got, want) {
				t.Fatalf("Range(%v, %v): %d records, reference %d", w[0], w[1], len(got), len(want))
			}
		}
	}
	var nilLogger *Logger
	if got := nilLogger.Range(0, 1); got != nil {
		t.Errorf("nil logger Range = %v", got)
	}
}

// TestRangeAllocsFollowWindow is Range's allocation contract: it copies
// and sorts only the window, so 3,000 records outside it (rings wrapped)
// cost what 30 do, in objects and in bytes. Merging every retained
// record made the same number of allocations either way, but ones that
// grew with the rings. The fewest over many single runs leaves out
// allocations by other goroutines and race-mode noise.
func TestRangeAllocsFollowWindow(t *testing.T) {
	cost := func(l *Logger) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		var ms runtime.MemStats
		for i := 0; i < 20; i++ {
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			l.Range(100, 101)
			runtime.ReadMemStats(&ms)
			allocs, bytes = min(allocs, ms.Mallocs-m0), min(bytes, ms.TotalAlloc-b0)
		}
		return allocs, bytes
	}
	smallN, smallB := cost(rangeFixture(30, 40, 3))
	largeN, largeB := cost(rangeFixture(3000, 40, 3))
	if largeN > smallN || largeB > smallB {
		t.Errorf("Range allocates %d objects, %d B with 3,000 records outside the window; %d, %d B with 30: want no growth",
			largeN, largeB, smallN, smallB)
	}
}

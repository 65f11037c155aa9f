package simclock

import (
	"fmt"
	"math"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	c := New()
	var order []string
	c.At(5, "b", func() { order = append(order, "b") })
	c.At(1, "a", func() { order = append(order, "a") })
	c.At(9, "c", func() { order = append(order, "c") })
	c.Run()
	if got := len(order); got != 3 {
		t.Fatalf("ran %d events, want 3", got)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("wrong order: %v", order)
	}
	if c.Now() != 9 {
		t.Errorf("final time %v, want 9", c.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(3, "e", func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	c := New()
	var fired Hours
	c.At(4, "outer", func() {
		c.After(2, "inner", func() { fired = c.Now() })
	})
	c.Run()
	if fired != 6 {
		t.Errorf("inner event fired at %v, want 6", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.At(5, "x", func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling before now")
		}
	}()
	c.At(1, "past", func() {})
}

func TestCancel(t *testing.T) {
	c := New()
	ran := false
	e := c.At(2, "x", func() { ran = true })
	c.Cancel(e)
	c.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.index != -1 {
		t.Error("event not marked cancelled")
	}
	// Double-cancel and nil-cancel are no-ops.
	c.Cancel(e)
	c.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := New()
	var order []string
	c.At(1, "a", func() { order = append(order, "a") })
	e := c.At(2, "b", func() { order = append(order, "b") })
	c.At(3, "c", func() { order = append(order, "c") })
	c.Cancel(e)
	c.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Errorf("order after cancel: %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	c := New()
	var ran []string
	c.At(1, "a", func() { ran = append(ran, "a") })
	c.At(5, "b", func() { ran = append(ran, "b") })
	c.At(10, "c", func() { ran = append(ran, "c") })
	c.RunUntil(5)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(5) ran %v", ran)
	}
	if c.Now() != 5 {
		t.Errorf("time after RunUntil = %v, want 5", c.Now())
	}
	if c.Pending() != 1 {
		t.Errorf("pending = %d, want 1", c.Pending())
	}
	c.RunUntil(20)
	if c.Now() != 20 || c.Pending() != 0 {
		t.Errorf("after second RunUntil: now=%v pending=%d", c.Now(), c.Pending())
	}
}

func TestEveryRepeatsUntilStop(t *testing.T) {
	c := New()
	count := 0
	c.Every(1, 2, "tick", func() { count++ }, func() bool { return count >= 5 })
	c.Run()
	if count != 5 {
		t.Errorf("tick count = %d, want 5", count)
	}
	if c.Now() != 9 { // ticks at 1,3,5,7,9
		t.Errorf("final time = %v, want 9", c.Now())
	}
}

// The event Every returns is the series' one event, so a Cancel after
// any tick stops the series, not only one before the first.
func TestEveryCancelAfterThreeTicks(t *testing.T) {
	c := New()
	count := 0
	e := c.Every(1, 1, "tick", func() { count++ }, nil)
	c.RunUntil(3.5)
	if count != 3 {
		t.Fatalf("ticks by 3.5 = %d, want 3", count)
	}
	c.Cancel(e)
	c.RunUntil(10)
	if count != 3 {
		t.Errorf("ticks after Cancel = %d, want 3 (no fourth tick)", count)
	}
	if c.Pending() != 0 {
		t.Errorf("pending after Cancel = %d, want 0", c.Pending())
	}
}

func TestEveryCancelFromCallback(t *testing.T) {
	c := New()
	count := 0
	var e *Event
	e = c.Every(0, 0.5, "tick", func() {
		count++
		if count == 2 {
			c.Cancel(e)
		}
	}, nil)
	c.RunUntil(10)
	if count != 2 {
		t.Errorf("ticks = %d, want 2: a Cancel from inside the callback must stop the series", count)
	}
}

// A re-armed tick takes the next sequence number after whatever its
// callback scheduled, so equal-time events run in the order a fresh At
// per tick gave them.
func TestEveryKeepsEqualTimeOrder(t *testing.T) {
	c := New()
	var order []string
	c.Every(1, 1, "tick", func() {
		order = append(order, "tick")
		c.At(c.Now()+1, "after", func() { order = append(order, "after") })
	}, func() bool { return c.Now() >= 3 })
	c.At(2, "before", func() { order = append(order, "before") })
	c.Run()
	want := []string{"tick", "before", "after", "tick", "after", "tick", "after"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestEveryTickAllocatesNothing(t *testing.T) {
	c := New()
	count := 0
	c.Every(0, 1, "tick", func() { count++ }, nil)
	c.Step() // the first tick
	// The fewest over many single runs leaves out the heap's growth and
	// any race-mode noise.
	fewest := math.Inf(1)
	for i := 0; i < 20; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { c.Step() }))
	}
	if fewest != 0 {
		t.Errorf("a periodic tick allocates %v, want 0", fewest)
	}
	if count < 2 {
		t.Fatalf("ticks = %d, want several", count)
	}
}

func TestEveryNonPositiveIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Every(0, 0, "bad", func() {}, nil)
}

func TestExecutedCounter(t *testing.T) {
	c := New()
	for i := 0; i < 7; i++ {
		c.At(float64(i), "e", func() {})
	}
	c.Run()
	if c.Executed() != 7 {
		t.Errorf("executed = %d, want 7", c.Executed())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	c := New()
	if c.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New()
		for j := 0; j < 1000; j++ {
			c.At(float64(j%100), "e", func() {})
		}
		c.Run()
	}
}

// A NaN time compares false against now, so it used to slip past the
// past-time guard and corrupt the heap order; it panics like a past time.
func TestAtRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(NaN) did not panic")
		}
	}()
	New().At(math.NaN(), "nan", func() {})
}

// At carves events from chunks of eventChunk, so 1,000 events on a fresh
// clock cost 16 chunks plus the queue's growth (one allocation per
// event made it 1,012).
func TestAtAllocatesByChunk(t *testing.T) {
	run := func() {}
	fewest := math.Inf(1)
	for i := 0; i < 20; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() {
			c := New()
			for j := 0; j < 1000; j++ {
				c.At(float64(j%100), "e", run)
			}
		}))
	}
	if fewest > 30 {
		t.Errorf("1,000 At calls allocate %v, want <= 30", fewest)
	}
}

// An event is never handed out twice: each At returns its own, so a
// caller that keeps one to Cancel cancels only its own, across chunks.
func TestAtEventsAreDistinct(t *testing.T) {
	c := New()
	ran := make([]bool, 3*eventChunk)
	events := make([]*Event, len(ran))
	for i := range ran {
		events[i] = c.At(1, "e", func() { ran[i] = true })
	}
	for i := 0; i < len(events); i += 2 {
		c.Cancel(events[i])
	}
	c.Run()
	for i, r := range ran {
		if r != (i%2 == 1) {
			t.Fatalf("event %d ran = %v, want %v", i, r, i%2 == 1)
		}
	}
}

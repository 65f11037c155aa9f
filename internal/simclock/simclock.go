// Package simclock is the discrete-event simulation kernel shared by the
// cloud, lease, scheduler, and student-behavior simulators.
//
// Time is virtual and measured in hours (float64) from an arbitrary
// epoch: the course simulation treats hour 0 as the start of week 1. An
// event loop pops the earliest scheduled event, advances the clock to its
// timestamp, and runs its callback; callbacks may schedule further events.
// Everything runs on the caller's goroutine, so simulations are
// deterministic by construction.
package simclock

import (
	"container/heap"
	"fmt"
)

// Hours is a duration or timestamp in simulated hours.
type Hours = float64

// Event is a scheduled callback.
type Event struct {
	At        Hours
	Name      string // the kind ("lease.start"), read only by the past-time panic
	Run       func()
	seq       int64 // tie-break so equal-time events run FIFO
	index     int32 // heap index; -1 once popped or cancelled
	cancelled bool  // set by Cancel; a periodic event is not re-armed
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = int32(len(*h))
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// eventChunk is how many events At carves from one allocation.
const eventChunk = 64

// Clock owns virtual time and the pending-event queue. The zero value is
// not usable; call New.
type Clock struct {
	now    Hours
	queue  eventHeap
	seq    int64
	events int64 // total executed, for diagnostics
	// chunk holds the events At has not handed out yet. An event is
	// never reused, since callers keep it to Cancel, so a chunk stays
	// live while any of its events is pending or held.
	chunk []Event
}

// New returns a clock at time 0 with an empty queue.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time in hours.
func (c *Clock) Now() Hours { return c.now }

// Executed returns the number of events run so far.
func (c *Clock) Executed() int64 { return c.events }

// Pending returns the number of events still queued.
//
//lint:ignore deadcode the armed-but-empty tests check that nothing was scheduled; no live API reads the queue length
func (c *Clock) Pending() int { return len(c.queue) }

// At schedules run at absolute time t. Scheduling in the past panics: that
// is always a simulation bug, and silently clamping would corrupt results.
func (c *Clock) At(t Hours, name string, run func()) *Event {
	if len(c.chunk) == 0 {
		c.chunk = make([]Event, eventChunk)
	}
	e := &c.chunk[0]
	c.chunk = c.chunk[1:]
	e.Name, e.Run = name, run
	c.push(e, t)
	return e
}

// push queues e at t behind every event already queued for t.
func (c *Clock) push(e *Event, t Hours) {
	if !(t >= c.now) { // NaN included: it would corrupt the heap order
		panic(fmt.Sprintf("simclock: event %q scheduled at %v, before now %v", e.Name, t, c.now))
	}
	e.At, e.seq = t, c.seq
	c.seq++
	heap.Push(&c.queue, e)
}

// After schedules run d hours from now.
func (c *Clock) After(d Hours, name string, run func()) *Event {
	return c.At(c.now+d, name, run)
}

// Cancel removes a pending event. Cancelling an executed or already
// cancelled event is a no-op, except that a periodic event (see Every)
// cancelled from inside its own callback is not re-armed.
func (c *Clock) Cancel(e *Event) {
	if e == nil {
		return
	}
	e.cancelled = true
	if e.index == -1 {
		return
	}
	heap.Remove(&c.queue, int(e.index))
	e.index = -1
}

// Step executes the next event, advancing the clock to its time. It
// returns false when the queue is empty.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*Event)
	c.now = e.At
	c.events++
	e.Run()
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than t, then advances the clock to exactly t.
func (c *Clock) RunUntil(t Hours) {
	for len(c.queue) > 0 && c.queue[0].At <= t {
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// Run drains the queue completely and returns the final time.
func (c *Clock) Run() Hours {
	for c.Step() {
	}
	return c.now
}

// Every schedules run at t, t+interval, t+2*interval, ... until stop
// returns true (checked after each execution). It returns the series'
// one event, which each tick re-arms, so Cancel stops the series at any
// point, from inside run too. A re-armed tick takes the next sequence
// number, so it orders among equal-time events as a fresh At would.
func (c *Clock) Every(start, interval Hours, name string, run func(), stop func() bool) *Event {
	if interval <= 0 {
		panic("simclock: Every with non-positive interval")
	}
	e := &Event{Name: name}
	e.Run = func() {
		run()
		if !e.cancelled && (stop == nil || !stop()) {
			c.push(e, c.now+interval)
		}
	}
	c.push(e, start)
	return e
}

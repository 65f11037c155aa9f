// Package clock abstracts "what time is it?" behind an interface so that
// every latency measurement in the platform can run on virtual time.
//
// The simulation kernel (internal/simclock) advances virtual hours
// deterministically; components that measure wall-clock latencies (the
// dynamic batcher, the app server, the TSDB collector) would silently break
// that determinism if they called time.Now directly. They instead accept
// a Clock, and the mlsyslint wallclock check enforces that this package
// and internal/simclock are the only places outside cmd/ entry points
// allowed to touch the real clock.
//
// Three implementations cover the three deployment contexts:
//
//   - System: the machine clock, for cmd/ entry points serving real
//     traffic.
//   - Manual: an explicitly advanced clock, for tests that want
//     deterministic latency telemetry.
//   - Sim: an adapter over *simclock.Clock, so components embedded in a
//     discrete-event simulation observe virtual time.
package clock

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Clock supplies the current time. Implementations must be safe for
// concurrent use.
type Clock interface {
	Now() time.Time
}

// Since returns the elapsed time between t and c.Now(). It is the
// clock-injected replacement for time.Since.
func Since(c Clock, t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// System reads the machine clock. Only cmd/ entry points (and this
// package) should construct one; libraries take a Clock.
type System struct{}

// Now returns the real wall-clock time.
func (System) Now() time.Time { return time.Now() }

// Manual is a settable clock for tests. The zero value starts at the
// zero time; use NewManual to pick an epoch.
type Manual struct {
	mu sync.Mutex
	t  time.Time
}

// NewManual returns a manual clock frozen at start.
//
//lint:ignore deadcode test fake: the batcher, app-server and TSDB-collector tests freeze latency telemetry with it
func NewManual(start time.Time) *Manual {
	return &Manual{t: start}
}

// Now returns the clock's current (frozen) time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// Advance moves the clock forward by d (negative d moves it back).
//
//lint:ignore deadcode part of the Manual test fake
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = m.t.Add(d)
}

// Set jumps the clock to t.
//
//lint:ignore deadcode part of the Manual test fake
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = t
}

// Sim exposes a discrete-event simulation clock as a Clock: virtual hour
// h maps to Epoch + h hours. Reads are only meaningful on the simulation
// goroutine (simclock is single-threaded by design).
type Sim struct {
	C     *simclock.Clock
	Epoch time.Time
}

// NewSim wraps c with the given epoch for hour 0.
//
//lint:ignore deadcode test fake kept with Manual: it runs a wall-clock component on simulated hours, and no binary does that yet
func NewSim(c *simclock.Clock, epoch time.Time) Sim {
	return Sim{C: c, Epoch: epoch}
}

// Now converts the simulation's virtual hours to a time.Time.
func (s Sim) Now() time.Time {
	return s.Epoch.Add(time.Duration(s.C.Now() * float64(time.Hour)))
}

// Package clock abstracts "what time is it?" behind an interface so that
// every latency measurement in the platform can run on an injected clock.
//
// The simulation kernel (internal/simclock) advances virtual hours
// deterministically; components that measure wall-clock latencies (the
// dynamic batcher, the app server, the TSDB collector) would silently break
// that determinism if they called time.Now directly. They instead accept
// a Clock, and the mlsyslint wallclock check enforces that this package
// and internal/simclock are the only places outside cmd/ entry points
// allowed to touch the real clock.
//
// Two implementations cover the two deployment contexts:
//
//   - System: the machine clock, for cmd/ entry points serving real
//     traffic.
//   - Manual: an explicitly advanced clock, for tests that want
//     deterministic latency telemetry.
package clock

import (
	"sync"
	"time"
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

package resilience

import (
	"time"

	"repro/internal/clock"
)

// Deadline is a virtual-time budget: it is armed at construction and
// reports expiry against the injected clock. Long-running operations
// poll Expired between units of work instead of racing a wall-clock
// timer, which keeps timeout behavior deterministic under simulation.
type Deadline struct {
	clk clock.Clock
	at  time.Time
}

// NewDeadline arms a deadline budget from now.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func NewDeadline(clk clock.Clock, budget time.Duration) Deadline {
	if clk == nil {
		clk = clock.System{}
	}
	return Deadline{clk: clk, at: clk.Now().Add(budget)}
}

// Expired reports whether the budget has elapsed.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func (d Deadline) Expired() bool { return !d.clk.Now().Before(d.at) }

// Remaining returns the budget left (negative once expired).
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func (d Deadline) Remaining() time.Duration { return d.at.Sub(d.clk.Now()) }

// Hedge tries primary and, only if it fails, runs fallback — the
// sequential form of hedged requests: the backup is issued once the
// primary is known bad rather than racing it, which preserves
// determinism. It reports whether the fallback produced the result.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func Hedge(primary, fallback func() error) (usedFallback bool, err error) {
	if err = primary(); err == nil {
		return false, nil
	}
	if fallback == nil {
		return false, err
	}
	return true, fallback()
}

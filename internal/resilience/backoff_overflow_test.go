package resilience

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// Regression test: on an uncapped policy, Base·Factor^attempt exceeds
// math.MaxInt64 for modest attempt counts, and the float→time.Duration
// conversion of such a value is implementation-specific (historically it
// wrapped negative). Delay must saturate at math.MaxInt64 instead.
func TestBackoffUncappedLargeAttemptSaturates(t *testing.T) {
	b := &Backoff{Base: time.Second, Factor: 10}
	// 1e9 ns · 10^10 = 1e19 > MaxInt64 (~9.22e18): already overflowing.
	for _, attempt := range []int{10, 11, 64, 100, 10_000, math.MaxInt32} {
		if got := b.Delay(attempt); got != math.MaxInt64 {
			t.Fatalf("Delay(%d) = %d, want saturation at MaxInt64", attempt, got)
		}
	}
	// Monotonic and non-negative across the overflow boundary.
	prev := time.Duration(0)
	for attempt := 0; attempt <= 120; attempt++ {
		d := b.Delay(attempt)
		if d < 0 {
			t.Fatalf("Delay(%d) = %d, negative delay", attempt, d)
		}
		if d < prev {
			t.Fatalf("Delay(%d) = %d < Delay(%d) = %d, not monotonic", attempt, d, attempt-1, prev)
		}
		prev = d
	}
}

func TestBackoffSaturationWithJitterStaysPositive(t *testing.T) {
	b := &Backoff{Base: time.Second, Factor: 10, Jitter: 0.5, rng: stats.NewRNG(42)}
	for attempt := 0; attempt <= 200; attempt++ {
		if d := b.Delay(attempt); d <= 0 {
			t.Fatalf("Delay(%d) = %d, want positive", attempt, d)
		}
	}
}

func TestBackoffCapStillWinsOverSaturation(t *testing.T) {
	b := &Backoff{Base: time.Second, Factor: 10, Cap: time.Hour}
	if got := b.Delay(1000); got != time.Hour {
		t.Fatalf("capped Delay(1000) = %v, want %v", got, time.Hour)
	}
}

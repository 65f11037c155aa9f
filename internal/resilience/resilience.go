// Package resilience provides the reusable failure-handling primitives
// the platform leans on when chaos (internal/chaos) — or real hardware —
// misbehaves: exponential backoff with seeded jitter and a retry budget,
// and the checkpoint-interval policy of checkpoint.go.
//
// Randomness is seeded through *stats.RNG, so retries are exactly
// reproducible inside the discrete-event simulation, and nothing here
// reads the machine clock (the mlsyslint wallclock check enforces this).
// Sleeping is delegated to an injectable Sleeper: simulations pass nil
// (delays are accounted, not waited out), entry points can pass a real
// sleeper.
package resilience

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrBudgetExhausted wraps the last error once the retry budget is spent.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// Backoff computes per-attempt delays: attempt k (0-based) waits
// Base·Factor^k, capped at Cap, with up to Jitter fraction of the delay
// added or removed uniformly at random. The zero value means "no delay"
// (every attempt retries immediately), which is what pure simulations
// want.
type Backoff struct {
	Base   time.Duration // delay before the first retry
	Factor float64       // growth per attempt; <=1 treated as 2 when Base > 0
	Cap    time.Duration // upper bound on a single delay; 0 = uncapped
	Jitter float64       // fraction in [0,1] of each delay randomized

	rng *stats.RNG // nil disables jitter regardless of Jitter
}

// maxDelayFloat is the saturation point for delay arithmetic:
// float64(math.MaxInt64) rounds up to exactly 2^63, so any float at or
// above it would overflow the time.Duration conversion (whose behavior
// for out-of-range values is implementation-specific). Delays saturate
// at math.MaxInt64 (~292 years) instead.
const maxDelayFloat = float64(math.MaxInt64)

// Delay returns the wait before retry number attempt (0-based). It
// advances the jitter RNG, so callers should invoke it once per retry.
// On uncapped policies the geometric growth saturates at math.MaxInt64
// rather than overflowing the float→Duration conversion for large
// attempt counts.
func (b *Backoff) Delay(attempt int) time.Duration {
	if b == nil || b.Base <= 0 {
		return 0
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if b.Cap > 0 && d >= float64(b.Cap) {
			d = float64(b.Cap)
			break
		}
		if d >= maxDelayFloat {
			break
		}
	}
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.rng != nil && b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d *= 1 + j*(2*b.rng.Float64()-1)
	}
	if d >= maxDelayFloat {
		return math.MaxInt64
	}
	return time.Duration(d)
}

// Sleeper waits out a backoff delay. Simulations pass nil (the delay is
// recorded in the Outcome but not waited), tests can capture delays, and
// cmd/ entry points may wrap time.Sleep.
type Sleeper func(d time.Duration)

// Outcome summarizes one Retrier.Do call.
type Outcome struct {
	Attempts int           // how many times fn ran
	Backoff  time.Duration // total delay requested between attempts
}

// Retrier runs an operation under a retry budget with backoff between
// attempts.
type Retrier struct {
	// Budget is the maximum number of attempts (including the first).
	// Values below 1 are treated as 1.
	Budget int
	// Backoff supplies inter-attempt delays; nil retries immediately.
	Backoff *Backoff
	// Sleep waits out each delay; nil records the delay without waiting
	// (the simulation regime).
	Sleep Sleeper
	// OnRetry, if set, observes every failed attempt before the retry.
	OnRetry func(attempt int, err error, delay time.Duration)
	// Span, if set, records each attempt as a child span ("attempt N"),
	// with failed attempts annotated with their error. Nil disables
	// tracing (the zero-value Retrier stays allocation-free).
	Span *trace.Span
}

// Do runs fn until it succeeds or the budget is exhausted. The returned
// error is nil on success; otherwise it wraps both ErrBudgetExhausted
// and the last attempt's error.
func (r Retrier) Do(fn func(attempt int) error) (Outcome, error) {
	budget := r.Budget
	if budget < 1 {
		budget = 1
	}
	var out Outcome
	var last error
	for attempt := 0; attempt < budget; attempt++ {
		out.Attempts++
		att := r.Span.StartChild(fmt.Sprintf("attempt %d", attempt+1))
		last = fn(attempt)
		if last != nil {
			att.Annotate(telemetry.String("error", last.Error()))
		}
		att.Finish()
		if last == nil {
			return out, nil
		}
		if attempt == budget-1 {
			break
		}
		delay := r.Backoff.Delay(attempt)
		out.Backoff += delay
		if r.OnRetry != nil {
			r.OnRetry(attempt, last, delay)
		}
		if r.Sleep != nil && delay > 0 {
			r.Sleep(delay)
		}
	}
	return out, &retryError{last: last}
}

// retryError ties the terminal failure to ErrBudgetExhausted while
// keeping the last cause reachable through errors.Is/As.
type retryError struct{ last error }

func (e *retryError) Error() string {
	return ErrBudgetExhausted.Error() + ": " + e.last.Error()
}

func (e *retryError) Is(target error) bool { return target == ErrBudgetExhausted }

func (e *retryError) Unwrap() error { return e.last }

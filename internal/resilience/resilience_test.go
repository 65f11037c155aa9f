package resilience

import (
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRetrySucceedsWithinBudget(t *testing.T) {
	calls := 0
	out, err := Retrier{Budget: 5}.Do(func(attempt int) error {
		calls++
		if attempt < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if calls != 3 || out.Attempts != 3 {
		t.Fatalf("attempts = %d (calls %d), want 3", out.Attempts, calls)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	cause := errors.New("persistent")
	out, err := Retrier{Budget: 3}.Do(func(int) error { return cause })
	if out.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", out.Attempts)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v should wrap the last cause", err)
	}
}

func TestRetryZeroBudgetRunsOnce(t *testing.T) {
	calls := 0
	out, _ := Retrier{}.Do(func(int) error { calls++; return errors.New("x") })
	if calls != 1 || out.Attempts != 1 {
		t.Fatalf("zero budget ran %d times, want 1", calls)
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	b := &Backoff{Base: time.Second, Factor: 2, Cap: 5 * time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if d := b.Delay(i); d != w {
			t.Errorf("Delay(%d) = %v, want %v", i, d, w)
		}
	}
	var nilB *Backoff
	if nilB.Delay(3) != 0 {
		t.Error("nil backoff should yield zero delay")
	}
}

func TestBackoffJitterDeterministicPerSeed(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		b := &Backoff{Base: time.Second, Factor: 2, Cap: time.Minute, Jitter: 0.5, rng: stats.NewRNG(seed)}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = b.Delay(i)
		}
		return out
	}
	a, b2 := seq(7), seq(7)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b2[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
	// Jitter stays within the configured band.
	b3 := &Backoff{Base: time.Second, Factor: 2, Cap: time.Hour, Jitter: 0.5, rng: stats.NewRNG(1)}
	for i := 0; i < 4; i++ {
		d := b3.Delay(i)
		nominal := time.Duration(float64(time.Second) * float64(int(1)<<i))
		if d < nominal/2 || d > nominal*3/2 {
			t.Errorf("Delay(%d) = %v outside ±50%% of %v", i, d, nominal)
		}
	}
}

func TestRetryRecordsBackoffWithoutSleeping(t *testing.T) {
	var slept []time.Duration
	r := Retrier{
		Budget:  3,
		Backoff: &Backoff{Base: time.Second, Factor: 2},
		OnRetry: func(attempt int, err error, delay time.Duration) {
			slept = append(slept, delay)
		},
	}
	out, err := r.Do(func(int) error { return errors.New("x") })
	if err == nil {
		t.Fatal("expected failure")
	}
	if out.Backoff != 3*time.Second {
		t.Fatalf("total backoff = %v, want 3s (1s + 2s)", out.Backoff)
	}
	if len(slept) != 2 || slept[0] != time.Second || slept[1] != 2*time.Second {
		t.Fatalf("OnRetry delays = %v", slept)
	}
}

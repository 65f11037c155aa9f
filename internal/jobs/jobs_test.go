package jobs

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

func TestPoolExecutesAll(t *testing.T) {
	p := NewPool(4, 0)
	defer p.Close()
	tasks := make([]Task, 50)
	for i := range tasks {
		i := i
		tasks[i] = func() (float64, error) { return float64(i * i), nil }
	}
	results, err := p.Map(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value != float64(i*i) {
			t.Fatalf("task %d: %+v", i, r)
		}
	}
}

func TestFaultToleranceRetries(t *testing.T) {
	p := NewPool(2, 3)
	defer p.Close()
	var attempts int32
	f, err := p.Submit(func() (float64, error) {
		if atomic.AddInt32(&attempts, 1) < 3 {
			return 0, errors.New("worker lost")
		}
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Get()
	if res.Err != nil || res.Value != 42 {
		t.Fatalf("result = %+v", res)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Attempts)
	}
	_, retried := p.Stats()
	if retried != 2 {
		t.Errorf("pool retried = %d, want 2", retried)
	}
}

// failAlways runs a task that always fails on a one-worker pool and
// returns its result, the pool's retried count and how often it ran.
func failAlways(maxRetries int, errs ...error) (res Result, retried, calls int) {
	p := NewPool(1, maxRetries)
	defer p.Close()
	f, _ := p.Submit(func() (float64, error) {
		err := errs[min(calls, len(errs)-1)]
		calls++
		return 7, err
	})
	res = f.Get()
	_, retried = p.Stats()
	return res, retried, calls
}

func TestRetryBudgetExhausted(t *testing.T) {
	errAlways := errors.New("always")
	res, retried, calls := failAlways(2, errAlways)
	// The task's own error, not a wrapper; the value of a failed attempt
	// is never reported.
	if res.Err != errAlways || res.Value != 0 {
		t.Errorf("result = %+v, want Err %v and Value 0", res, errAlways)
	}
	if res.Attempts != 3 || calls != 3 { // 1 + 2 retries
		t.Errorf("attempts = %d, calls = %d, want 3", res.Attempts, calls)
	}
	// Every failed attempt counts, the last one included.
	if retried != 3 {
		t.Errorf("pool retried = %d, want 3", retried)
	}
}

func TestRetryZeroBudgetRunsOnce(t *testing.T) {
	for _, maxRetries := range []int{0, -1} {
		res, retried, calls := failAlways(maxRetries, errors.New("x"))
		if calls != 1 || res.Attempts != 1 || retried != 1 {
			t.Errorf("MaxRetries %d: calls = %d, attempts = %d, retried = %d, want 1 each",
				maxRetries, calls, res.Attempts, retried)
		}
	}
}

func TestRetryReturnsLastError(t *testing.T) {
	errs := []error{errors.New("first"), errors.New("second"), errors.New("last")}
	res, _, _ := failAlways(2, errs...)
	if res.Err != errs[2] {
		t.Errorf("err = %v, want the last attempt's %v", res.Err, errs[2])
	}
}

func TestPanicIsolation(t *testing.T) {
	p := NewPool(2, 0)
	defer p.Close()
	f, _ := p.Submit(func() (float64, error) { panic("segfault in training loop") })
	res := f.Get()
	if res.Err == nil {
		t.Fatal("panic not converted to error")
	}
	// Pool still works afterwards.
	f2, _ := p.Submit(func() (float64, error) { return 1, nil })
	if r := f2.Get(); r.Err != nil || r.Value != 1 {
		t.Fatalf("pool broken after panic: %+v", r)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 0)
	p.Close()
	if _, err := p.Submit(func() (float64, error) { return 0, nil }); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("submit after close err = %v", err)
	}
	p.Close() // double close is a no-op
}

func TestFutureGetIdempotent(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	f, _ := p.Submit(func() (float64, error) { return 7, nil })
	if a, b := f.Get(), f.Get(); a != b {
		t.Errorf("repeated Get differs: %+v vs %+v", a, b)
	}
}

func TestSampleSpecDeterminism(t *testing.T) {
	spec := SampleSpec{
		"lr":      func(r *stats.RNG) float64 { return math.Pow(10, r.Uniform(-4, -1)) },
		"dropout": func(r *stats.RNG) float64 { return r.Uniform(0, 0.5) },
	}
	a := spec.Sample(5, stats.NewRNG(3))
	b := spec.Sample(5, stats.NewRNG(3))
	for i := range a {
		if a[i]["lr"] != b[i]["lr"] || a[i]["dropout"] != b[i]["dropout"] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
	}
}

// lrConfigs returns one trial configuration per learning rate.
func lrConfigs(lrs ...float64) []map[string]float64 {
	out := make([]map[string]float64, len(lrs))
	for i, lr := range lrs {
		out[i] = map[string]float64{"lr": lr}
	}
	return out
}

// parabola has its optimum at lr=0.3: score = 1 - (lr-0.3)^2.
func parabola(cfg map[string]float64, report func(int, float64) bool) (float64, error) {
	score := 1 - (cfg["lr"]-0.3)*(cfg["lr"]-0.3)
	for step := 0; step < 5; step++ {
		// Scores improve toward the final value over steps.
		partial := score * float64(step+1) / 5
		if !report(step, partial) {
			return partial, nil
		}
	}
	return score, nil
}

func TestGridSearchFindsOptimum(t *testing.T) {
	p := NewPool(4, 0)
	defer p.Close()
	tuner := &Tuner{Pool: p, Maximize: true}
	results, best, err := tuner.Run(lrConfigs(0.1, 0.2, 0.3, 0.4, 0.5), parabola)
	if err != nil {
		t.Fatal(err)
	}
	if results[best].Config["lr"] != 0.3 {
		t.Errorf("best lr = %v, want 0.3", results[best].Config["lr"])
	}
}

func TestMinimizeDirection(t *testing.T) {
	p := NewPool(2, 0)
	defer p.Close()
	tuner := &Tuner{Pool: p, Maximize: false}
	grid := lrConfigs(0.1, 0.3, 0.5)
	loss := func(cfg map[string]float64, report func(int, float64) bool) (float64, error) {
		return (cfg["lr"] - 0.3) * (cfg["lr"] - 0.3), nil
	}
	results, best, err := tuner.Run(grid, loss)
	if err != nil {
		t.Fatal(err)
	}
	if results[best].Config["lr"] != 0.3 {
		t.Errorf("best lr = %v", results[best].Config["lr"])
	}
}

func TestMedianStoppingPrunesBadTrials(t *testing.T) {
	// Run trials sequentially (1 worker) so medians accumulate
	// deterministically: later bad trials get pruned against earlier
	// good ones.
	p := NewPool(1, 0)
	defer p.Close()
	tuner := &Tuner{Pool: p, Maximize: true, MedianStopping: true,
		GracePeriod: 1, MinTrialsForMedian: 3}
	configs := []map[string]float64{
		{"lr": 0.3}, {"lr": 0.29}, {"lr": 0.31}, // good: score ≈ 1
		{"lr": 5}, {"lr": 6}, {"lr": 7}, // terrible: deeply negative
	}
	results, best, err := tuner.Run(configs, parabola)
	if err != nil {
		t.Fatal(err)
	}
	if results[best].Config["lr"] != 0.3 {
		t.Errorf("best lr = %v", results[best].Config["lr"])
	}
	prunedCount := 0
	for _, r := range results[3:] {
		if r.Pruned {
			prunedCount++
			if r.Steps >= 5 {
				t.Errorf("pruned trial ran all %d steps", r.Steps)
			}
		}
	}
	if prunedCount == 0 {
		t.Error("median stopping pruned nothing")
	}
	for _, r := range results[:3] {
		if r.Pruned {
			t.Errorf("good trial pruned: %+v", r)
		}
	}
}

// Median stopping must not depend on goroutine timing: with 4 workers
// every run prunes exactly the trials a 1-worker run prunes. One trial
// fails its first attempt midway, so its retry reports its steps again.
func TestMedianStoppingIndependentOfWorkers(t *testing.T) {
	configs := SampleSpec{
		"lr": func(r *stats.RNG) float64 { return r.Uniform(-1, 1.6) },
	}.Sample(16, stats.NewRNG(7))
	run := func(workers int) ([]TrialResult, int) {
		p := NewPool(workers, 1)
		defer p.Close()
		var failed atomic.Bool
		objective := func(cfg map[string]float64, report func(int, float64) bool) (float64, error) {
			score := 1 - (cfg["lr"]-0.3)*(cfg["lr"]-0.3)
			for step := 0; step < 6; step++ {
				runtime.Gosched()
				partial := score * float64(step+1) / 6
				if cfg["lr"] == configs[5]["lr"] && step == 3 && !failed.Swap(true) {
					return 0, errors.New("worker lost")
				}
				if !report(step, partial) {
					return partial, nil
				}
			}
			return score, nil
		}
		tuner := &Tuner{Pool: p, Maximize: true, MedianStopping: true,
			GracePeriod: 1, MinTrialsForMedian: 3}
		results, best, err := tuner.Run(configs, objective)
		if err != nil {
			t.Fatal(err)
		}
		return results, best
	}
	want, wantBest := run(1)
	pruned := 0
	for _, r := range want {
		if r.Pruned {
			pruned++
		}
	}
	if pruned == 0 || pruned == len(want) {
		t.Fatalf("1-worker run pruned %d of %d trials; the test needs some of each", pruned, len(want))
	}
	for i := 0; i < 20; i++ {
		got, best := run(4)
		if best != wantBest || !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d with 4 workers differs from the 1-worker run:\n got %+v (best %d)\nwant %+v (best %d)",
				i, got, best, want, wantBest)
		}
	}
}

func TestAllTrialsFailed(t *testing.T) {
	p := NewPool(2, 0)
	defer p.Close()
	tuner := &Tuner{Pool: p, Maximize: true}
	_, best, err := tuner.Run([]map[string]float64{{"a": 1}, {"a": 2}},
		func(map[string]float64, func(int, float64) bool) (float64, error) {
			return 0, errors.New("oom")
		})
	if err == nil || best != -1 {
		t.Errorf("err=%v best=%d, want failure", err, best)
	}
}

func BenchmarkPoolThroughput(b *testing.B) {
	p := NewPool(8, 0)
	defer p.Close()
	b.ResetTimer()
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = func() (float64, error) { return 1, nil }
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.Map(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

package jobs

import (
	"errors"
	"fmt"
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

func TestRetryBudgetExhausted(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	f, _ := p.Submit(func() (float64, error) { return 0, errors.New("always") })
	res := f.Get()
	if res.Err == nil {
		t.Fatal("expected terminal failure")
	}
	if res.Attempts != 3 { // 1 + 2 retries
		t.Errorf("attempts = %d, want 3", res.Attempts)
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

func TestGridSpecExpansion(t *testing.T) {
	g := GridSpec{"lr": {0.1, 0.01}, "batch": {16, 32, 64}}
	configs := g.Configs()
	if len(configs) != 6 {
		t.Fatalf("grid size = %d, want 6", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		key := fmt.Sprintf("%v-%v", c["lr"], c["batch"])
		if seen[key] {
			t.Fatalf("duplicate config %s", key)
		}
		seen[key] = true
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
	grid := GridSpec{"lr": {0.1, 0.2, 0.3, 0.4, 0.5}}
	results, best, err := tuner.Run(grid.Configs(), parabola)
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
	grid := GridSpec{"lr": {0.1, 0.3, 0.5}}
	loss := func(cfg map[string]float64, report func(int, float64) bool) (float64, error) {
		return (cfg["lr"] - 0.3) * (cfg["lr"] - 0.3), nil
	}
	results, best, err := tuner.Run(grid.Configs(), loss)
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

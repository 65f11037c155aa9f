package serve

import (
	"errors"
	"math"
	"testing"
)

func a100Cfg(batch, instances int) Config {
	return Config{Model: FoodClassifier(), Device: DeviceA100,
		MaxBatch: batch, Instances: instances}
}

func TestEstimateLoadLightTraffic(t *testing.T) {
	cfg := a100Cfg(8, 2)
	est, err := EstimateLoad(cfg, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.Utilization <= 0 || est.Utilization >= 0.5 {
		t.Errorf("light-load utilization = %v", est.Utilization)
	}
	if est.TotalMS <= est.ServiceMS {
		t.Errorf("total %v should include waiting beyond service %v", est.TotalMS, est.ServiceMS)
	}
	if est.P95MS < est.ServiceMS {
		t.Errorf("p95 %v below service time %v", est.P95MS, est.ServiceMS)
	}
}

func TestEstimateLoadLatencyGrowsWithLoad(t *testing.T) {
	cfg := a100Cfg(8, 2)
	prev := 0.0
	max := cfg.Throughput()
	for _, frac := range []float64{0.3, 0.6, 0.85, 0.95} {
		est, err := EstimateLoad(cfg, frac*max, 5)
		if err != nil {
			t.Fatalf("load %.0f%%: %v", frac*100, err)
		}
		if est.TotalMS < prev {
			t.Errorf("latency decreased with load at %.0f%%: %v < %v", frac*100, est.TotalMS, prev)
		}
		prev = est.TotalMS
	}
}

func TestEstimateLoadOverload(t *testing.T) {
	cfg := a100Cfg(1, 1)
	max := cfg.Throughput()
	if _, err := EstimateLoad(cfg, max*1.2, 5); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overload err = %v", err)
	}
	if _, err := EstimateLoad(cfg, 0, 5); err == nil {
		t.Error("zero arrival rate accepted")
	}
}

func TestBatchingTradesLatencyForCapacity(t *testing.T) {
	// At high load, batch-8 sustains what batch-1 cannot.
	single := a100Cfg(1, 1)
	batched := a100Cfg(8, 1)
	load := single.Throughput() * 2
	if _, err := EstimateLoad(single, load, 10); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch-1 should overload: %v", err)
	}
	est, err := EstimateLoad(batched, load, 10)
	if err != nil {
		t.Fatalf("batch-8 should sustain 2x batch-1 capacity: %v", err)
	}
	// But at trivial load, batching adds fill-window latency.
	lightSingle, _ := EstimateLoad(single, 5, 10)
	lightBatched, _ := EstimateLoad(batched, 5, 10)
	if lightBatched.BatchWaitMS <= lightSingle.BatchWaitMS {
		t.Errorf("batch wait: batched %v vs single %v", lightBatched.BatchWaitMS, lightSingle.BatchWaitMS)
	}
	_ = est
}

func TestErlangCSanity(t *testing.T) {
	// Zero load: nobody queues. Near saturation: almost everyone queues.
	if p := erlangC(4, 0.01); p > 0.001 {
		t.Errorf("Erlang-C at ~zero load = %v", p)
	}
	if p := erlangC(4, 3.96); p < 0.8 {
		t.Errorf("Erlang-C near saturation = %v", p)
	}
	// Monotone in load.
	prev := -1.0
	for a := 0.5; a < 3.9; a += 0.5 {
		p := erlangC(4, a)
		if p < prev {
			t.Fatalf("Erlang-C not monotone at a=%v", a)
		}
		prev = p
	}
}

func TestP95AboveMean(t *testing.T) {
	cfg := a100Cfg(8, 2)
	est, err := EstimateLoad(cfg, 0.9*cfg.Throughput(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.P95MS < est.TotalMS*0.8 {
		t.Errorf("p95 %v implausibly below mean %v", est.P95MS, est.TotalMS)
	}
	if math.IsNaN(est.P95MS) || math.IsInf(est.P95MS, 0) {
		t.Errorf("p95 = %v", est.P95MS)
	}
}

func BenchmarkEstimateLoad(b *testing.B) {
	cfg := a100Cfg(8, 2)
	for i := 0; i < b.N; i++ {
		if _, err := EstimateLoad(cfg, 500, 5); err != nil {
			b.Fatal(err)
		}
	}
}

package monitor

import (
	"testing"

	"repro/internal/stats"
)

func TestDriftDetectorNoDriftOnSameDistribution(t *testing.T) {
	rng := stats.NewRNG(5)
	ref := make([]float64, 3000)
	cur := make([]float64, 3000)
	for i := range ref {
		ref[i] = rng.Normal()
		cur[i] = rng.Normal()
	}
	d := NewDriftDetector(ref)
	r := d.Check(cur)
	if r.Drifted {
		t.Errorf("false positive drift: %+v", r)
	}
}

func TestDriftDetectorCatchesShift(t *testing.T) {
	rng := stats.NewRNG(6)
	ref := make([]float64, 3000)
	cur := make([]float64, 3000)
	for i := range ref {
		ref[i] = rng.Normal()
		cur[i] = rng.Normal()*1.4 + 1.2
	}
	d := NewDriftDetector(ref)
	r := d.Check(cur)
	if !r.Drifted {
		t.Errorf("missed obvious drift: %+v", r)
	}
	if r.Reason == "" {
		t.Error("drift report lacks reason")
	}
}

func TestCanaryVerdicts(t *testing.T) {
	// Healthy canary.
	c := NewCanaryComparison()
	for i := 0; i < 500; i++ {
		mustOK(t, c.Record("stable", i%100 == 0)) // 1%
		mustOK(t, c.Record("canary", i%100 == 1)) // 1%
	}
	if err := c.Verdict(); err != nil {
		t.Errorf("healthy canary rejected: %v", err)
	}
	// Absolute ceiling breach.
	c2 := NewCanaryComparison()
	for i := 0; i < 100; i++ {
		mustOK(t, c2.Record("canary", i%10 == 0)) // 10%
	}
	if err := c2.Verdict(); err == nil {
		t.Error("10% canary error rate accepted")
	}
	// Regression vs stable.
	c3 := NewCanaryComparison()
	for i := 0; i < 1000; i++ {
		mustOK(t, c3.Record("stable", false))     // 0%
		mustOK(t, c3.Record("canary", i%25 == 0)) // 4% < ceiling but regresses
	}
	if err := c3.Verdict(); err == nil {
		t.Error("4 percent vs 0 percent regression accepted")
	}
	// No traffic: refuse to judge.
	if err := NewCanaryComparison().Verdict(); err == nil {
		t.Error("verdict with no canary traffic should fail")
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDriftCheck(b *testing.B) {
	rng := stats.NewRNG(1)
	ref := make([]float64, 1000)
	cur := make([]float64, 1000)
	for i := range ref {
		ref[i] = rng.Normal()
		cur[i] = rng.Normal()
	}
	d := NewDriftDetector(ref)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Check(cur)
	}
}

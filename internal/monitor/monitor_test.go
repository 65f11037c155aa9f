package monitor

import (
	"sync"
	"testing"

	"repro/internal/stats"
)

func TestTSDBQueryWindow(t *testing.T) {
	db := NewTSDB()
	for i := 0; i < 10; i++ {
		db.Add("latency_ms", float64(i), float64(100+i))
	}
	pts := db.Query("latency_ms", 3, 6)
	if len(pts) != 4 {
		t.Fatalf("window returned %d points, want 4", len(pts))
	}
	if pts[0].V != 103 || pts[3].V != 106 {
		t.Errorf("window edges wrong: %+v", pts)
	}
	if got := db.Query("missing", 0, 10); got != nil {
		t.Errorf("missing series returned %v", got)
	}
}

func TestTSDBOutOfOrderSorted(t *testing.T) {
	db := NewTSDB()
	db.Add("m", 5, 50)
	db.Add("m", 1, 10)
	db.Add("m", 3, 30)
	pts := db.Query("m", 0, 10)
	for i := 1; i < len(pts); i++ {
		if pts[i-1].T > pts[i].T {
			t.Fatal("query result not time-ordered")
		}
	}
}

func TestWindowStats(t *testing.T) {
	db := NewTSDB()
	for i := 1; i <= 5; i++ {
		db.Add("m", float64(i), float64(i))
	}
	s, err := db.WindowStats("m", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %v", s.Mean)
	}
	if _, err := db.WindowStats("m", 100, 200); err == nil {
		t.Error("empty window should error")
	}
}

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

func TestTSDBConcurrent(t *testing.T) {
	db := NewTSDB()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Add("m", float64(i), float64(g))
				db.Query("m", 0, float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := len(db.Query("m", -1, 1e9)); got != 1600 {
		t.Errorf("points = %d, want 1600", got)
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

package orchestrator

import (
	"math"
	"testing"
)

func TestOptimalCheckpointIntervalYoung(t *testing.T) {
	// sqrt(2 · 0.05h write · 10h MTBF) = 1h exactly.
	if got := OptimalCheckpointInterval(0.05, 10); math.Abs(got-1) > 1e-12 {
		t.Fatalf("interval = %v, want 1", got)
	}
	if OptimalCheckpointInterval(0, 10) != 0 || OptimalCheckpointInterval(0.1, 0) != 0 {
		t.Fatal("degenerate inputs must disable checkpointing")
	}
}

func TestPlanCheckpoints(t *testing.T) {
	// 180 GB at 1 GB/s = 180s = 0.05h per write; MTBF 10h ⇒ 1h interval.
	const gb = 1 << 30
	p := PlanCheckpoints(180*gb, 1*gb, 10)
	if math.Abs(p.WriteHours-0.05) > 1e-12 {
		t.Fatalf("write hours = %v, want 0.05", p.WriteHours)
	}
	if math.Abs(p.IntervalHours-1) > 1e-12 {
		t.Fatalf("interval = %v, want 1", p.IntervalHours)
	}
	if p.RestoreHours != p.WriteHours {
		t.Fatalf("restore %v should match write %v", p.RestoreHours, p.WriteHours)
	}
	if !p.Enabled() {
		t.Fatal("planned policy should be enabled")
	}
	// A huge artifact against a tiny MTBF clamps interval to the write time.
	q := PlanCheckpoints(1000*gb, 1*gb, 0.001)
	if q.IntervalHours < q.WriteHours {
		t.Fatalf("interval %v must be at least one write %v", q.IntervalHours, q.WriteHours)
	}
	if (CheckpointPolicy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
}

package orchestrator

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/objectstore"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// trainSite builds a 4-node bare-metal site with a 1-slot spot pool on
// compute_liqid, an object store for checkpoints, and a controller.
func trainSite(t testing.TB, poolCap int) (*simclock.Clock, *cloud.Cloud, *TrainController, *telemetry.Bus) {
	t.Helper()
	clk := simclock.New()
	c := cloud.New("train-site", clk)
	bus := telemetry.New()
	c.SetTelemetry(bus)
	c.AddBareMetal(4, cloud.ComputeLiqid)
	c.CreateProject("lab", cloud.Quota{Instances: 100, Cores: 10000, RAMGB: 100000})
	m := c.EnableSpot(2.0 / 60)
	m.AddPool(cloud.ComputeLiqid, poolCap, cost.SpotPriceSeries{
		OnDemandPerHour: 1.212,
		Segments:        []cost.SpotSegment{{Start: 0, PerHour: 0.40}},
	})
	store := objectstore.New(clk, c)
	if _, err := store.CreateBucket("lab", "ckpts"); err != nil {
		t.Fatal(err)
	}
	tc := NewTrainController(clk, c)
	tc.SetObjectStore(store)
	tc.SetTelemetry(bus)
	return clk, c, tc, bus
}

func trainSpec(name string, steps int) TrainJobSpec {
	return TrainJobSpec{
		Name:       name,
		Project:    "lab",
		Targets:    []TrainTarget{{Flavor: cloud.ComputeLiqid, StepHours: 0.1}},
		TotalSteps: steps,
		Checkpoint: CheckpointPolicy{
			IntervalHours: 0.5,
			WriteHours:    0.02,
			RestoreHours:  0.02,
			SizeBytes:     1 << 30,
		},
		Bucket: "ckpts",
	}
}

func TestTrainJobCompletesWithoutPreemption(t *testing.T) {
	clk, _, tc, _ := trainSite(t, 1)
	if err := tc.Submit(trainSpec("ft", 12)); err != nil {
		t.Fatal(err)
	}
	clk.Run()
	if !tc.AllDone() {
		t.Fatalf("job not done: %+v", tc.Jobs())
	}
	j := tc.Jobs()[0]
	if j.PersistedSteps != 12 || j.LostSteps != 0 || j.LostStepHours != 0 {
		t.Fatalf("persisted/lost = %d/%d/%v, want 12/0/0", j.PersistedSteps, j.LostSteps, j.LostStepHours)
	}
	// 12 steps at 0.5h interval, 0.1h step = 5 steps/segment: 3 segments,
	// 3 checkpoint writes (5, 10, 12).
	if j.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3", j.Checkpoints)
	}
	if j.Pool != "compute_liqid" {
		t.Fatalf("pool = %q, want spot placement", j.Pool)
	}
}

// A preemption mid-segment with a notice window long enough for a final
// checkpoint loses only the partial step in flight: the job drains,
// saves, vacates before the reclaim deadline, and resumes elsewhere.
func TestTrainJobSurvivesPreemptionWithFinalCheckpoint(t *testing.T) {
	clk, c, tc, _ := trainSite(t, 1)
	if err := tc.Submit(trainSpec("ft", 12)); err != nil {
		t.Fatal(err)
	}
	m := c.Spot()
	clk.At(0.75, "test.preempt", func() {
		if err := m.Preempt("compute_liqid"); err != nil {
			t.Errorf("preempt: %v", err)
		}
	})
	clk.Run()
	if !tc.AllDone() {
		t.Fatalf("job not done: %+v", tc.Jobs())
	}
	j := tc.Jobs()[0]
	if j.PersistedSteps != 12 {
		t.Fatalf("persisted = %d, want 12", j.PersistedSteps)
	}
	if j.Preemptions != 1 || j.Migrations != 1 {
		t.Fatalf("preemptions/migrations = %d/%d, want 1/1", j.Preemptions, j.Migrations)
	}
	// Segment 2 started at t=0.52; at t=0.75 two full steps (0.2h) have
	// finished and 0.03h of the third is abandoned.
	if j.LostSteps != 0 {
		t.Fatalf("lost steps = %d, want 0 (notice window fits a checkpoint)", j.LostSteps)
	}
	if math.Abs(j.LostStepHours-0.03) > 1e-9 {
		t.Fatalf("lost step-hours = %v, want 0.03 (partial step only)", j.LostStepHours)
	}
	// The controller vacated before the deadline — the market must not
	// have reclaimed a running instance.
	preempts, reclaims, vacated := m.Stats()
	if preempts != 1 || reclaims != 0 || vacated != 1 {
		t.Fatalf("market stats = %d/%d/%d, want 1/0/1", preempts, reclaims, vacated)
	}
	// After the pool shrank to zero slots the relaunch fell back to
	// on-demand.
	if j.Pool != "" {
		t.Fatalf("resumed pool = %q, want on-demand fallback", j.Pool)
	}
}

// When the notice window is too short for a checkpoint write, the job
// rewinds to its last durable step: lost work is bounded by one
// checkpoint interval plus the partial step.
func TestTrainJobLostWorkBoundedByInterval(t *testing.T) {
	clk, c, tc, _ := trainSite(t, 1)
	spec := trainSpec("ft", 12)
	spec.Checkpoint.WriteHours = 0.05 // > 2-minute notice window
	if err := tc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	m := c.Spot()
	clk.At(0.78, "test.preempt", func() {
		if err := m.Preempt("compute_liqid"); err != nil {
			t.Errorf("preempt: %v", err)
		}
	})
	clk.Run()
	if !tc.AllDone() {
		t.Fatalf("job not done: %+v", tc.Jobs())
	}
	j := tc.Jobs()[0]
	if j.PersistedSteps != 12 {
		t.Fatalf("persisted = %d, want 12", j.PersistedSteps)
	}
	if j.LostSteps == 0 {
		t.Fatal("expected drained steps to be lost with a too-short window")
	}
	maxLost := int(spec.Checkpoint.IntervalHours/0.1) + 1
	if j.LostSteps > maxLost {
		t.Fatalf("lost %d steps, want ≤ %d (one checkpoint interval)", j.LostSteps, maxLost)
	}
	if j.LostStepHours > spec.Checkpoint.IntervalHours+0.1 {
		t.Fatalf("lost %v step-hours, want bounded by interval+one step", j.LostStepHours)
	}
}

// A job whose instance dies without any notice (host crash) discovers
// the death at segment end, loses at most the segment, and still
// completes after migrating.
func TestTrainJobSurvivesHostCrash(t *testing.T) {
	clk, c, tc, _ := trainSite(t, 1)
	if err := tc.Submit(trainSpec("ft", 12)); err != nil {
		t.Fatal(err)
	}
	clk.At(0.23, "test.crash", func() {
		insts := c.List(func(i *cloud.Instance) bool { return i.Running() })
		if len(insts) != 1 {
			t.Errorf("running instances = %d, want 1", len(insts))
			return
		}
		if err := c.FailHost(insts[0].Host); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	clk.Run()
	if !tc.AllDone() {
		t.Fatalf("job not done: %+v", tc.Jobs())
	}
	j := tc.Jobs()[0]
	if j.PersistedSteps != 12 {
		t.Fatalf("persisted = %d, want 12", j.PersistedSteps)
	}
	if j.Migrations != 1 || j.Preemptions != 0 {
		t.Fatalf("migrations/preemptions = %d/%d, want 1/0", j.Migrations, j.Preemptions)
	}
	// Crash at 0.23 into segment 1 (started at 0): two steps computed
	// and lost, 0.23h of compute wasted.
	if j.LostSteps != 2 || math.Abs(j.LostStepHours-0.23) > 1e-9 {
		t.Fatalf("lost = %d steps / %v h, want 2 / 0.23", j.LostSteps, j.LostStepHours)
	}
}

// Two jobs contending for one spot slot: the loser retries, falls back
// to on-demand, and both finish. Nothing deadlocks or double-books the
// pool.
func TestTrainTwoJobsOneSlot(t *testing.T) {
	clk, _, tc, _ := trainSite(t, 1)
	if err := tc.Submit(trainSpec("a", 8)); err != nil {
		t.Fatal(err)
	}
	if err := tc.Submit(trainSpec("b", 8)); err != nil {
		t.Fatal(err)
	}
	clk.Run()
	if !tc.AllDone() {
		t.Fatalf("jobs not done: %+v", tc.Jobs())
	}
	jobs := tc.Jobs()
	if jobs[0].Pool == jobs[1].Pool {
		t.Fatalf("both jobs claim pool %q; one must be on-demand", jobs[0].Pool)
	}
}

// Same seed, same wiring — byte-identical job status and telemetry.
func TestTrainControllerDeterministic(t *testing.T) {
	run := func() string {
		clk, c, tc, bus := trainSite(t, 2)
		if err := tc.Submit(trainSpec("a", 10)); err != nil {
			t.Fatal(err)
		}
		if err := tc.Submit(trainSpec("b", 14)); err != nil {
			t.Fatal(err)
		}
		m := c.Spot()
		clk.At(0.6, "test.preempt", func() { _ = m.Preempt("compute_liqid") })
		clk.At(1.1, "test.preempt2", func() { _ = m.Preempt("compute_liqid") })
		clk.Run()
		out := fmt.Sprintf("%+v\n", tc.Jobs())
		for _, mt := range bus.Snapshot() {
			out += fmt.Sprintf("%s=%v\n", mt.Name, mt.Value)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n----\n%s", a, b)
	}
}

// BenchmarkSpotTrainRun measures a complete checkpoint-and-migrate
// survival run: two training jobs on a one-slot spot pool, two
// preemptions, final checkpoints, on-demand fallback, restore. It is the
// end-to-end simulation throughput of the spot subsystem.
func BenchmarkSpotTrainRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk, c, tc, _ := trainSite(b, 1)
		for _, name := range []string{"a", "b"} {
			if err := tc.Submit(trainSpec(name, 20)); err != nil {
				b.Fatal(err)
			}
		}
		m := c.Spot()
		clk.At(0.6, "bench.preempt", func() { _ = m.Preempt("compute_liqid") })
		clk.At(1.3, "bench.preempt2", func() { _ = m.Preempt("compute_liqid") })
		clk.Run()
		if !tc.AllDone() {
			b.Fatal("jobs did not complete")
		}
	}
}

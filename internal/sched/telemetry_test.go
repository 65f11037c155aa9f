package sched

import (
	"testing"

	"repro/internal/logging"
	"repro/internal/telemetry"
)

func TestSchedulerTelemetry(t *testing.T) {
	bus := telemetry.New()
	SetTelemetry(bus)
	defer SetTelemetry(nil)
	lg := logging.New(1, nil)
	SetLogging(lg)
	defer SetLogging(nil)

	jobs := []*Job{
		{ID: "a", User: "u1", GPUs: 4, Duration: 2, Submit: 0},
		{ID: "b", User: "u2", GPUs: 4, Duration: 1, Submit: 0},
		{ID: "c", User: "u1", GPUs: 2, Duration: 1, Submit: 0.5},
	}
	res, err := Run(PolicyFIFO, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	snap := bus.Snapshot()
	if m, _ := telemetry.Find(snap, "sched.jobs_scheduled"); m.Value != 3 {
		t.Errorf("jobs_scheduled = %v, want 3", m.Value)
	}
	if m, _ := telemetry.Find(snap, "sched.runs"); m.Value != 1 {
		t.Errorf("runs = %v, want 1", m.Value)
	}
	wait, ok := telemetry.Find(snap, "sched.queue_wait_hours")
	if !ok || wait.Count != 3 {
		t.Fatalf("queue_wait histogram = %+v, want 3 observations", wait)
	}
	var wantSum float64
	for _, a := range res.Assignments {
		wantSum += a.Wait()
	}
	if wait.Sum != wantSum {
		t.Errorf("queue_wait sum = %v, want %v", wait.Sum, wantSum)
	}
	recs := lg.Records(0)
	if len(recs) != 1 || recs[0].Msg != "scheduler run complete" || recs[0].Attr("policy") != PolicyFIFO {
		t.Errorf("log records = %q, want one run summary for fifo", logging.Render(recs))
	}
}

func TestPreemptionTelemetry(t *testing.T) {
	bus := telemetry.New()
	SetTelemetry(bus)
	defer SetTelemetry(nil)
	jobs := []*Job{
		{ID: "low", User: "u1", GPUs: 4, Duration: 10, Submit: 0, Weight: 1},
		{ID: "high", User: "u2", GPUs: 4, Duration: 1, Submit: 2, Weight: 5},
	}
	res, err := RunPreemptive(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPreemptions < 1 {
		t.Fatalf("scenario should preempt, got %d", res.TotalPreemptions)
	}
	snap := bus.Snapshot()
	if m, _ := telemetry.Find(snap, "sched.preemptions"); int(m.Value) != res.TotalPreemptions {
		t.Errorf("preemptions counter = %v, want %d", m.Value, res.TotalPreemptions)
	}
}

package jobs

import (
	"errors"
	"testing"
	"time"

	"repro/internal/logging"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

func TestPoolTelemetry(t *testing.T) {
	bus := telemetry.New()
	lg := logging.New(1, nil)
	p := NewPool(2, 1)
	p.SetTelemetry(bus)
	p.SetLogging(lg)

	fail := errors.New("transient")
	tasks := []Task{
		func() (float64, error) { return 1, nil },
		func() (float64, error) { return 2, nil },
		func() (float64, error) { return 0, fail }, // retried once, still fails
	}
	if _, err := p.Map(tasks); err != nil {
		t.Fatal(err)
	}
	p.Close()

	snap := bus.Snapshot()
	if m, _ := telemetry.Find(snap, "jobs.executed"); m.Value != 3 {
		t.Errorf("jobs.executed = %v, want 3", m.Value)
	}
	// MaxRetries=1: the failing task runs twice, both attempts counted.
	if m, _ := telemetry.Find(snap, "jobs.retries"); m.Value != 2 {
		t.Errorf("jobs.retries = %v, want 2", m.Value)
	}
	stall, ok := telemetry.Find(snap, "jobs.worker_stall_seconds")
	if !ok || stall.Count != 3 {
		t.Errorf("worker_stall histogram = %+v, want 3 observations", stall)
	}
	// Each failed attempt also leaves a log record naming its error.
	var failed int
	for _, r := range lg.Records(0) {
		if r.Msg == "task attempt failed" {
			failed++
			if r.Attr("error") != "transient" {
				t.Errorf("failed-attempt record error attr = %q", r.Attr("error"))
			}
		}
	}
	if failed != 2 {
		t.Errorf("%d failed-attempt log records, want 2", failed)
	}
}

// Retries flow through resilience.Retrier: an installed backoff policy is
// consulted per retry and the total requested delay is accounted in
// telemetry — without the pool ever sleeping (nil Sleeper), so the test
// finishes instantly.
func TestRetryPolicyBackoffAccounted(t *testing.T) {
	bus := telemetry.New()
	p := NewPool(1, 2)
	p.SetTelemetry(bus)
	p.SetRetryPolicy(resilience.NewBackoff(100*time.Millisecond, 2, 0, 0, 1), nil)
	defer p.Close()

	fails := 0
	f, err := p.Submit(func() (float64, error) {
		if fails < 2 {
			fails++
			return 0, errors.New("transient")
		}
		return 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Get()
	if res.Err != nil || res.Value != 7 || res.Attempts != 3 {
		t.Fatalf("result = %+v, want value 7 in 3 attempts", res)
	}
	// Delays requested: 100ms then 200ms = 0.3s total, recorded not slept.
	m, ok := telemetry.Find(bus.Snapshot(), "jobs.retry_backoff_seconds")
	if !ok || m.Count != 1 {
		t.Fatalf("retry_backoff histogram = %+v, want 1 observation", m)
	}
	if m.Sum != 0.3 {
		t.Fatalf("total backoff = %v s, want 0.3", m.Sum)
	}
}

package sched

import (
	"sync/atomic"

	"repro/internal/logging"
	"repro/internal/telemetry"
)

// The schedulers are pure functions over job lists, so instrumentation
// attaches at package level: SetTelemetry installs a bus and every
// subsequent Run/RunPreemptive reports queue waits and preemptions. A
// nil bus (the default) disables it. Telemetry never affects scheduling
// decisions, so instrumented runs stay deterministic.
var tel atomic.Pointer[telemetry.Bus]

// SetTelemetry installs the bus used by all scheduler runs (nil
// disables). Safe to call concurrently with running schedulers.
func SetTelemetry(b *telemetry.Bus) { tel.Store(b) }

func telemetryBus() *telemetry.Bus { return tel.Load() }

// Logging follows the same package-level pattern: SetLogging installs
// the "sched" log stream used by all scheduler runs (nil disables). A
// nil-logger Component is itself nil-safe, so call sites never check.
var logComp atomic.Pointer[logging.Component]

// SetLogging installs the structured logger for all scheduler runs.
// Safe to call concurrently with running schedulers.
func SetLogging(lg *logging.Logger) { logComp.Store(lg.Component("sched")) }

func logStream() *logging.Component { return logComp.Load() }

// queueWaitBuckets spans sub-hour waits through multi-day starvation.
func queueWaitBuckets() []float64 { return telemetry.ExpBuckets(0.25, 2, 12) }

func recordRun(policy string, res Result) {
	logStream().Info("scheduler run complete",
		logging.Str("policy", policy),
		logging.Int("jobs", len(res.Assignments)),
		logging.Float("makespan_h", res.Makespan),
		logging.Float("avg_wait_h", res.AvgWait))
	b := telemetryBus()
	if b == nil {
		return
	}
	b.Counter("sched.runs").Inc()
	b.Counter("sched.jobs_scheduled").Add(int64(len(res.Assignments)))
	b.Counter(telemetry.Labeled("sched.jobs_scheduled",
		telemetry.String("policy", policy))).Add(int64(len(res.Assignments)))
	h := b.Histogram("sched.queue_wait_hours", queueWaitBuckets())
	for _, a := range res.Assignments {
		h.Observe(a.Wait())
	}
}

func recordPreemptiveRun(res PreemptiveResult) {
	logStream().Info("scheduler run complete",
		logging.Str("policy", "preemptive"),
		logging.Int("jobs", len(res.Assignments)),
		logging.Int("preemptions", res.TotalPreemptions),
		logging.Float("makespan_h", res.Makespan))
	b := telemetryBus()
	if b == nil {
		return
	}
	b.Counter("sched.runs").Inc()
	b.Counter("sched.jobs_scheduled").Add(int64(len(res.Assignments)))
	b.Counter(telemetry.Labeled("sched.jobs_scheduled",
		telemetry.String("policy", "preemptive"))).Add(int64(len(res.Assignments)))
	b.Counter("sched.preemptions").Add(int64(res.TotalPreemptions))
	h := b.Histogram("sched.queue_wait_hours", queueWaitBuckets())
	for _, a := range res.Assignments {
		h.Observe(a.FirstStartWait())
	}
}

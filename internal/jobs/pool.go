// Package jobs implements the distributed-execution substrate of Unit 5's
// second lab: a Ray-style task pool with resource-slot scheduling and
// fault tolerance (failed tasks are retried transparently, as Ray retries
// tasks from lost workers), plus hyperparameter search — grid and random
// — with median-stopping early termination in the style of Ray Tune
// (tune.go).
package jobs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/logging"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrPoolClosed is returned for submissions after Close.
var ErrPoolClosed = errors.New("jobs: pool is closed")

// Task is a unit of work returning a scalar result (losses, accuracies,
// durations — all the lab's tasks reduce to this) or an error.
type Task func() (float64, error)

// Result is a task's terminal outcome.
type Result struct {
	Value    float64
	Err      error
	Attempts int
}

// Future resolves to a task's result.
type Future struct {
	once sync.Once
	ch   chan Result
	res  Result
}

// Get blocks until the task finishes and returns its result.
func (f *Future) Get() Result {
	f.once.Do(func() { f.res = <-f.ch })
	return f.res
}

// Pool executes tasks on a fixed number of worker goroutines. Each task
// is retried up to MaxRetries times on error, emulating Ray's lineage
// re-execution when a worker dies mid-task.
type Pool struct {
	MaxRetries int

	clk    clock.Clock
	mu     sync.Mutex
	queue  chan submission
	wg     sync.WaitGroup
	closed bool
	tel    *telemetry.Bus
	log    *logging.Component // "jobs" stream; nil no-ops
	// retry policy (resilience.Retrier); nil backoff retries immediately
	// and nil sleep records delays without waiting — the deterministic
	// simulation default.
	backoff *resilience.Backoff
	sleep   resilience.Sleeper
	// stats
	executed int
	retried  int
}

// SetRetryPolicy installs a backoff policy (and optionally a sleeper)
// for task retries. With a nil sleeper the computed delays are recorded
// in telemetry but not waited out, which keeps simulations virtual-time
// pure while still exercising the backoff math. Call before the first
// Submit.
func (p *Pool) SetRetryPolicy(b *resilience.Backoff, s resilience.Sleeper) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backoff = b
	p.sleep = s
}

type submission struct {
	task Task
	out  chan Result
	span *trace.Span // nil for untraced submissions
}

// NewPool starts a pool with the given number of workers and per-task
// retry budget, measuring worker stalls on the machine clock. Entry
// points use this; simulations and tests use NewPoolClock.
func NewPool(workers, maxRetries int) *Pool {
	return NewPoolClock(workers, maxRetries, clock.System{})
}

// NewPoolClock starts a pool whose idle/stall telemetry reads the given
// clock, so latencies stay virtual-time-consistent inside simulations
// and deterministic in tests. A nil clk falls back to the machine clock.
func NewPoolClock(workers, maxRetries int, clk clock.Clock) *Pool {
	if workers <= 0 {
		workers = 1
	}
	if clk == nil {
		clk = clock.System{}
	}
	p := &Pool{MaxRetries: maxRetries, clk: clk, queue: make(chan submission)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// SetTelemetry attaches a telemetry bus; task execution, retries, and
// worker stalls (idle time between tasks) are instrumented. Call before
// the first Submit.
func (p *Pool) SetTelemetry(b *telemetry.Bus) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tel = b
}

func (p *Pool) telemetry() *telemetry.Bus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tel
}

// SetLogging attaches the structured logger; retries and failed tasks
// leave "jobs" log lines (successes stay silent — the executed counter
// already tells that story). Call before the first Submit.
func (p *Pool) SetLogging(lg *logging.Logger) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = lg.Component("jobs")
}

func (p *Pool) logStream() *logging.Component {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log
}

func (p *Pool) worker() {
	defer p.wg.Done()
	idleSince := p.clk.Now()
	for sub := range p.queue {
		tel := p.telemetry()
		tel.Histogram("jobs.worker_stall_seconds", telemetry.LatencyBuckets()).
			Observe(clock.Since(p.clk, idleSince).Seconds())
		p.mu.Lock()
		backoff, sleep := p.backoff, p.sleep
		p.mu.Unlock()
		// Queue wait: from submission (the task span's start) to now, in
		// the tracer's virtual time.
		qw := sub.span.StartChildAt("jobs.queue_wait", sub.span.StartTime())
		qw.Finish()
		res := Result{}
		countFailure := func(attempts int, err error) {
			p.mu.Lock()
			p.retried++
			p.mu.Unlock()
			tel.Counter("jobs.retries").Inc()
			p.logStream().WarnT(sub.span, "task attempt failed",
				logging.Int("attempt", attempts),
				logging.Str("error", err.Error()))
		}
		r := resilience.Retrier{
			Budget:  p.MaxRetries + 1,
			Backoff: backoff,
			Sleep:   sleep,
			OnRetry: func(attempt int, err error, _ time.Duration) {
				countFailure(attempt+1, err)
			},
			Span: sub.span,
		}
		out, err := r.Do(func(int) error {
			v, taskErr := runProtected(sub.task)
			if taskErr != nil {
				return taskErr
			}
			res.Value = v
			return nil
		})
		res.Attempts = out.Attempts
		if err != nil {
			// Surface the task's own error, not the budget wrapper, to
			// keep the Ray-style API: callers see what the task returned.
			res.Err = errors.Unwrap(err)
			countFailure(out.Attempts, res.Err)
		}
		if out.Backoff > 0 {
			tel.Histogram("jobs.retry_backoff_seconds", telemetry.LatencyBuckets()).
				Observe(out.Backoff.Seconds())
		}
		p.mu.Lock()
		p.executed++
		p.mu.Unlock()
		tel.Counter("jobs.executed").Inc()
		outcome, traced := "ok", "no"
		if res.Err != nil {
			outcome = "err"
		}
		if sub.span.TraceID() != 0 {
			traced = "yes"
		}
		tel.Counter(telemetry.Labeled("jobs.executed",
			telemetry.String("outcome", outcome),
			telemetry.String("traced", traced))).Inc()
		sub.span.Annotate(telemetry.Int("attempts", res.Attempts))
		if res.Err != nil {
			sub.span.Annotate(telemetry.String("error", res.Err.Error()))
			p.logStream().ErrorT(sub.span, "task failed: retry budget exhausted",
				logging.Int("attempts", res.Attempts),
				logging.Str("error", res.Err.Error()))
		}
		sub.span.Finish()
		sub.out <- res
		idleSince = p.clk.Now()
	}
}

// runProtected converts panics into errors so one bad task cannot take
// down a worker (Ray's actor-crash isolation).
func runProtected(t Task) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: task panicked: %v", r)
		}
	}()
	return t()
}

// Submit enqueues a task and returns its future.
func (p *Pool) Submit(t Task) (*Future, error) {
	return p.submit(t, nil)
}

// SubmitTraced enqueues a task whose execution is recorded as a
// "jobs.task" child span of parent: queue wait, each retry attempt, and
// the terminal outcome all become part of the trace. A nil parent
// behaves exactly like Submit.
func (p *Pool) SubmitTraced(t Task, parent *trace.Span) (*Future, error) {
	return p.submit(t, parent.StartChild("jobs.task"))
}

func (p *Pool) submit(t Task, span *trace.Span) (*Future, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		span.Annotate(telemetry.String("error", ErrPoolClosed.Error()))
		span.Finish()
		return nil, ErrPoolClosed
	}
	p.mu.Unlock()
	f := &Future{ch: make(chan Result, 1)}
	p.queue <- submission{task: t, out: f.ch, span: span}
	return f, nil
}

// Map runs one task per input concurrently and returns results in order.
func (p *Pool) Map(tasks []Task) ([]Result, error) {
	futures := make([]*Future, len(tasks))
	for i, t := range tasks {
		f, err := p.Submit(t)
		if err != nil {
			// Resolve already-submitted futures before bailing.
			for j := 0; j < i; j++ {
				futures[j].Get()
			}
			return nil, err
		}
		futures[i] = f
	}
	out := make([]Result, len(tasks))
	for i, f := range futures {
		out[i] = f.Get()
	}
	return out, nil
}

// Close stops accepting tasks and waits for in-flight work to drain.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.queue)
	p.wg.Wait()
}

// Stats reports executed task count and total retry count.
func (p *Pool) Stats() (executed, retried int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed, p.retried
}

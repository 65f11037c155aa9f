package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/logging"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrBatcherClosed is returned for submissions after Close and for
// accepted requests that the batcher shut down before executing.
var ErrBatcherClosed = errors.New("serve: batcher is closed")

// Request is one inference request moving through the batcher.
type Request struct {
	Input    []float64
	enqueued time.Time
	result   chan Response
	span     *trace.Span // nil for untraced submissions
}

// Response carries the inference output back to the submitter.
type Response struct {
	Output    []float64
	BatchSize int // how many requests shared the execution
	Err       error
}

// ExecuteFunc runs one batch and returns per-request outputs (len must
// equal len(inputs)). The dynamic batcher is agnostic to what execution
// means: production code runs a model, tests count calls.
type ExecuteFunc func(inputs [][]float64) ([][]float64, error)

// Batcher implements Triton-style dynamic batching: requests queue until
// either MaxBatch are waiting or MaxDelay has elapsed since the first
// queued request, then the whole group executes as one batch. Multiple
// Instances drain the queue concurrently (instance/concurrency scaling,
// the lab's system-level optimization).
type Batcher struct {
	MaxBatch int
	MaxDelay time.Duration
	Execute  ExecuteFunc

	queue chan *Request
	done  chan struct{}
	wg    sync.WaitGroup

	// closeMu makes Submit-vs-Close deterministic: Submit enqueues under
	// the read lock, Close flips closed under the write lock before the
	// drain, so no request can slip into the queue after Close has
	// finished draining it.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once

	// Instrument handles resolved once in SetTelemetry; all nil (no-op)
	// when no bus is attached. Keeps Labeled/bucket construction off the
	// per-batch path.
	telBatches    *telemetry.Counter
	telRequests   *telemetry.Counter
	telTracedReqs *telemetry.Counter
	telPlainReqs  *telemetry.Counter
	telRejected   *telemetry.Counter
	telQueueDepth *telemetry.Gauge
	telBatchSize  *telemetry.Histogram
	telBatchForm  *telemetry.Histogram
	log           *logging.Component // "serve" stream; nil no-ops
	clk           clock.Clock

	mu          sync.Mutex
	batches     int
	requests    int
	sumBatchLen int
}

// NewBatcher starts a dynamic batcher with the given number of concurrent
// executor instances, stamping requests with the machine clock. Entry
// points use this; simulations and tests use NewBatcherClock.
func NewBatcher(maxBatch int, maxDelay time.Duration, instances int, execute ExecuteFunc) *Batcher {
	return NewBatcherClock(maxBatch, maxDelay, instances, execute, clock.System{})
}

// NewBatcherClock starts a dynamic batcher whose enqueue timestamps and
// batch-formation latencies read the given clock, keeping telemetry
// virtual-time-consistent inside simulations and deterministic in tests.
// A nil clk falls back to the machine clock. (The MaxDelay fill window
// still waits on a real timer: batch formation is a concurrency
// mechanism, not a measurement.)
func NewBatcherClock(maxBatch int, maxDelay time.Duration, instances int, execute ExecuteFunc, clk clock.Clock) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if instances < 1 {
		instances = 1
	}
	if clk == nil {
		clk = clock.System{}
	}
	b := &Batcher{
		clk:      clk,
		MaxBatch: maxBatch,
		MaxDelay: maxDelay,
		Execute:  execute,
		queue:    make(chan *Request, 16*maxBatch),
		done:     make(chan struct{}),
	}
	b.wg.Add(instances)
	for i := 0; i < instances; i++ {
		go b.instance()
	}
	return b
}

// SetTelemetry attaches a telemetry bus; batch sizes, formation latency,
// and request/batch counters are instrumented. Call before Submit.
// Instruments are registered here, once, so the per-batch path only
// touches pre-resolved handles.
func (b *Batcher) SetTelemetry(bus *telemetry.Bus) {
	b.telBatches = bus.Counter("serve.batches")
	b.telRequests = bus.Counter("serve.requests")
	b.telTracedReqs = bus.Counter(telemetry.Labeled("serve.requests",
		telemetry.String("traced", "yes")))
	b.telPlainReqs = bus.Counter(telemetry.Labeled("serve.requests",
		telemetry.String("traced", "no")))
	b.telRejected = bus.Counter("serve.rejected_closed")
	b.telQueueDepth = bus.Gauge("serve.queue_depth")
	b.telBatchSize = bus.Histogram("serve.batch_size", telemetry.LinearBuckets(1, 1, 32))
	b.telBatchForm = bus.Histogram("serve.batch_form_seconds", telemetry.LatencyBuckets())
}

// SetLogging attaches the structured logger; failed batches and
// shutdown leave "serve" log lines. Call before Submit.
func (b *Batcher) SetLogging(lg *logging.Logger) {
	b.log = lg.Component("serve")
}

// instance collects one batch at a time and executes it.
func (b *Batcher) instance() {
	defer b.wg.Done()
	for {
		// Shutdown has priority over starting a new batch: once Close
		// runs, uncollected requests are left for its drain, which
		// answers them with ErrBatcherClosed deterministically.
		select {
		case <-b.done:
			return
		default:
		}
		// Block for the first request (or shutdown).
		var first *Request
		select {
		case first = <-b.queue:
		case <-b.done:
			return
		}
		batch := []*Request{first}
		//lint:ignore wallclock MaxDelay bounds batch formation across real goroutines; a virtual clock cannot wake a blocked select, and batch latency is measured through the injected b.clk, so the wall timer never leaks into simulated time
		timer := time.NewTimer(b.MaxDelay)
	collect:
		for len(batch) < b.MaxBatch {
			select {
			case r := <-b.queue:
				batch = append(batch, r)
			case <-timer.C:
				break collect
			case <-b.done:
				// Drain-on-close: execute what we have.
				break collect
			}
		}
		timer.Stop()
		b.run(batch)
	}
}

func (b *Batcher) run(batch []*Request) {
	formation := clock.Since(b.clk, batch[0].enqueued)
	inputs := make([][]float64, len(batch))
	for i, r := range batch {
		inputs[i] = r.Input
	}
	// Per-request spans: the wait from submission until the batch formed,
	// then the shared execution (one child per request so every trace is
	// self-contained).
	for _, r := range batch {
		qw := r.span.StartChildAt("serve.queue_wait", r.span.StartTime())
		qw.Finish()
	}
	execSpans := make([]*trace.Span, len(batch))
	for i, r := range batch {
		execSpans[i] = r.span.StartChild("serve.execute",
			telemetry.Int("batch_size", len(batch)))
	}
	outputs, err := b.Execute(inputs)
	if err == nil && len(outputs) != len(batch) {
		err = errors.New("serve: executor returned wrong output count")
	}
	for _, sp := range execSpans {
		if err != nil {
			sp.Annotate(telemetry.String("error", err.Error()))
		}
		sp.Finish()
	}
	b.mu.Lock()
	b.batches++
	b.requests += len(batch)
	b.sumBatchLen += len(batch)
	b.mu.Unlock()
	b.telBatches.Inc()
	b.telRequests.Add(int64(len(batch)))
	var traced, untraced int64
	for _, r := range batch {
		if r.span != nil {
			traced++
		} else {
			untraced++
		}
	}
	if traced > 0 {
		b.telTracedReqs.Add(traced)
	}
	if untraced > 0 {
		b.telPlainReqs.Add(untraced)
	}
	b.telQueueDepth.Set(float64(len(b.queue)))
	b.telBatchSize.Observe(float64(len(batch)))
	b.telBatchForm.Observe(formation.Seconds())
	if err != nil {
		b.log.Error("batch execution failed",
			logging.Int("size", len(batch)),
			logging.Str("error", err.Error()))
	}
	for i, r := range batch {
		resp := Response{BatchSize: len(batch), Err: err}
		if err == nil {
			resp.Output = outputs[i]
		}
		r.result <- resp
	}
}

// Submit enqueues a request and blocks until its batch executes. After
// Close, every accepted request deterministically receives either its
// real response (its batch was collected before shutdown) or
// ErrBatcherClosed — never a fabricated zero-value response.
func (b *Batcher) Submit(input []float64) (Response, error) {
	return b.submit(input, nil)
}

// SubmitTraced is Submit with the request recorded as a "serve.request"
// child span of parent: batcher queue wait and batch execution become
// child spans, and closed/failed outcomes are annotated. A nil parent
// behaves exactly like Submit.
func (b *Batcher) SubmitTraced(input []float64, parent *trace.Span) (Response, error) {
	return b.submit(input, parent.StartChild("serve.request"))
}

func (b *Batcher) submit(input []float64, span *trace.Span) (Response, error) {
	r := &Request{Input: input, enqueued: b.clk.Now(), result: make(chan Response, 1), span: span}
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		b.telRejected.Inc()
		span.Annotate(telemetry.String("error", ErrBatcherClosed.Error()))
		span.Finish()
		return Response{}, ErrBatcherClosed
	}
	// Enqueue while holding the read lock. The queue is bounded, but
	// progress is guaranteed: instances only exit after Close flips
	// `closed`, and Close cannot flip it while we hold the read lock.
	//lint:ignore lockedcallback send under closeMu.RLock is the shutdown protocol: instances drain the queue until Close flips closed, and Close cannot flip it while this read lock is held, so the send always progresses
	b.queue <- r
	b.telQueueDepth.Set(float64(len(b.queue)))
	b.closeMu.RUnlock()
	// The response always arrives: either an instance executed the batch
	// or Close's drain answered with ErrBatcherClosed — so this is the
	// single place the request span finishes.
	resp := <-r.result
	if resp.Err != nil {
		span.Annotate(telemetry.String("error", resp.Err.Error()))
	} else {
		span.Annotate(telemetry.Int("batch_size", resp.BatchSize))
	}
	span.Finish()
	if resp.Err != nil && errors.Is(resp.Err, ErrBatcherClosed) {
		return Response{}, ErrBatcherClosed
	}
	return resp, nil
}

// Close stops the instances. In-flight batches finish; queued requests
// that were never collected receive ErrBatcherClosed. Close is
// idempotent and blocks until every accepted request has been answered.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() {
		b.closeMu.Lock()
		b.closed = true
		b.closeMu.Unlock()
		close(b.done)
		b.wg.Wait()
		// No Submit can be enqueueing now (closed was set under the
		// write lock) and all instances have exited, so the queue is
		// quiescent: answer everything left.
		for {
			select {
			case r := <-b.queue:
				b.telRejected.Inc()
				r.result <- Response{Err: ErrBatcherClosed}
			default:
				b.log.Info("batcher closed")
				return
			}
		}
	})
}

// Stats reports executed batches, total requests, and mean batch size —
// the numbers the lab reads off Triton's metrics endpoint.
func (b *Batcher) Stats() (batches, requests int, meanBatch float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.batches > 0 {
		meanBatch = float64(b.sumBatchLen) / float64(b.batches)
	}
	return b.batches, b.requests, meanBatch
}

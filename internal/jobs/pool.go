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
// re-execution when a worker dies mid-task; a negative MaxRetries runs
// it once. Retries run back to back: the simulation has no wall time to
// wait out.
type Pool struct {
	MaxRetries int

	mu     sync.Mutex
	queue  chan submission
	wg     sync.WaitGroup
	closed bool
	// stats
	executed int
	retried  int
}

type submission struct {
	task Task
	out  chan Result
}

// NewPool starts a pool with the given number of workers and per-task
// retry budget.
func NewPool(workers, maxRetries int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	p := &Pool{MaxRetries: maxRetries, queue: make(chan submission)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for sub := range p.queue {
		var res Result
		for {
			res.Attempts++
			v, err := runProtected(sub.task)
			if err == nil {
				res.Value = v
				break
			}
			p.mu.Lock()
			p.retried++
			p.mu.Unlock()
			if res.Attempts > p.MaxRetries {
				// The task's own last error: callers see what it returned.
				res.Err = err
				break
			}
		}
		p.mu.Lock()
		p.executed++
		p.mu.Unlock()
		sub.out <- res
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
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.mu.Unlock()
	f := &Future{ch: make(chan Result, 1)}
	p.queue <- submission{task: t, out: f.ch}
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

// Stats reports the executed task count and the failed-attempt count,
// an exhausted task's last attempt included.
func (p *Pool) Stats() (executed, retried int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed, p.retried
}

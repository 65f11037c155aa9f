package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logging"
	"repro/internal/telemetry"
)

// TestBatcherConcurrentSubmitClose is the regression test for the old
// nondeterministic shutdown path (a hardcoded 1-second time.After that
// could fabricate a zero-value response). Under -race, many goroutines
// submit while Close runs; every accepted request must get either a real
// executed response or ErrBatcherClosed — never a zero-value Response
// with a nil error.
func TestBatcherConcurrentSubmitClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		var executed atomic.Int64
		b := NewBatcher(8, 50*time.Millisecond, 2, func(inputs [][]float64) ([][]float64, error) {
			executed.Add(int64(len(inputs)))
			out := make([][]float64, len(inputs))
			for i, in := range inputs {
				out[i] = []float64{in[0] + 1}
			}
			return out, nil
		})

		const submitters = 16
		var ok, closedErr atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := b.Submit([]float64{float64(i)})
				switch {
				case err == nil:
					if len(resp.Output) != 1 || resp.Output[0] != float64(i)+1 || resp.BatchSize < 1 {
						t.Errorf("round %d: executed response is wrong: %+v", round, resp)
					}
					ok.Add(1)
				case errors.Is(err, ErrBatcherClosed):
					if resp.Output != nil {
						t.Errorf("round %d: closed response carries output: %+v", round, resp)
					}
					closedErr.Add(1)
				default:
					t.Errorf("round %d: unexpected error: %v", round, err)
				}
			}(i)
		}
		close(start)
		b.Close() // races with the submitters on purpose
		wg.Wait()

		if got := ok.Load() + closedErr.Load(); got != submitters {
			t.Fatalf("round %d: %d responses for %d submits", round, got, submitters)
		}
		if ok.Load() != executed.Load() {
			t.Errorf("round %d: %d successes but executor saw %d requests",
				round, ok.Load(), executed.Load())
		}
	}
}

// TestBatcherCloseDrainsPromptly verifies drain-on-close is deterministic
// and fast: a queued request must be answered well under the old
// hardcoded 1-second fallback.
func TestBatcherCloseDrainsPromptly(t *testing.T) {
	release := make(chan struct{})
	b := NewBatcher(1, time.Hour, 1, func(inputs [][]float64) ([][]float64, error) {
		<-release
		return inputs, nil
	})
	// First submit occupies the single instance inside Execute; the
	// second sits in the queue with nobody to collect it.
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit([]float64{1})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release) // let the in-flight batch finish
	}()
	start := time.Now()
	go func() { b.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Errorf("close+drain took %v, want well under the old 1s fallback", elapsed)
	}
	var real, closed int
	for _, err := range errs {
		switch {
		case err == nil:
			real++
		case errors.Is(err, ErrBatcherClosed):
			closed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if real != 1 || closed != 1 {
		t.Errorf("got %d real / %d closed, want 1/1", real, closed)
	}
}

func TestBatcherTelemetry(t *testing.T) {
	bus := telemetry.New()
	b := NewBatcher(4, 5*time.Millisecond, 1, echoExec)
	b.SetTelemetry(bus)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit([]float64{1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	b.Close()
	snap := bus.Snapshot()
	if m, _ := telemetry.Find(snap, "serve.requests"); m.Value != 8 {
		t.Errorf("serve.requests = %v, want 8", m.Value)
	}
	sizeHist, ok := telemetry.Find(snap, "serve.batch_size")
	if !ok {
		t.Fatal("no serve.batch_size histogram")
	}
	batches := int(sizeHist.Count)
	if batches < 2 {
		t.Errorf("batch_size histogram count=%d (MaxBatch 4 over 8 requests needs >= 2 batches)", batches)
	}
	if int(sizeHist.Sum) != 8 {
		t.Errorf("batch_size sum = %v, want 8 (all requests accounted)", sizeHist.Sum)
	}
	form, ok := telemetry.Find(snap, "serve.batch_form_seconds")
	if !ok || form.Count != sizeHist.Count {
		t.Errorf("formation histogram count = %d, want %d", form.Count, sizeHist.Count)
	}
	if m, _ := telemetry.Find(snap, "serve.batches"); int(m.Value) != batches {
		t.Errorf("serve.batches = %v, want %d", m.Value, batches)
	}
}

// TestLoggedBatcherConcurrentSubmit drives an instrumented, logged
// 2-instance batcher from 64 concurrent submitters, so both instances
// run the per-batch path at once: under -race, any per-batch state they
// share without a lock fails it. One round does not always interleave
// the instances, so it runs several.
func TestLoggedBatcherConcurrentSubmit(t *testing.T) {
	const rounds, submitters = 8, 64
	for round := 0; round < rounds; round++ {
		bus := telemetry.New()
		lg := logging.New(1, nil)
		b := NewBatcher(4, time.Millisecond, 2, echoExec)
		b.SetTelemetry(bus)
		b.SetLogging(lg)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := b.Submit([]float64{float64(i)})
				if err != nil || len(resp.Output) != 1 || resp.Output[0] != float64(i) {
					t.Errorf("round %d: submit %d = %+v, %v", round, i, resp, err)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		b.Close()
		if m, _ := telemetry.Find(bus.Snapshot(), "serve.requests"); m.Value != submitters {
			t.Fatalf("round %d: serve.requests = %v, want %d", round, m.Value, submitters)
		}
		// Successful batches log nothing; Close logs one line.
		if recs := lg.Records(0); len(recs) != 1 || recs[0].Msg != "batcher closed" {
			t.Fatalf("round %d: log = %q, want only \"batcher closed\"", round, logging.Render(recs))
		}
	}
}

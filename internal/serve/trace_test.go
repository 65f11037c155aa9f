package serve

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// TestBatcherSubmitTracedSpans pins the traced request shape: a
// serve.request child under the caller's span with a backdated
// serve.queue_wait and a batch-size-stamped serve.execute.
func TestBatcherSubmitTracedSpans(t *testing.T) {
	tracer := trace.New(1, func() float64 { return 0 })
	root := tracer.StartTrace("api")
	b := NewBatcher(4, time.Millisecond, 1, func(in [][]float64) ([][]float64, error) {
		return in, nil
	})
	resp, err := b.SubmitTraced([]float64{7}, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Output) != 1 || resp.Output[0] != 7 {
		t.Fatalf("response = %+v, want echo of input", resp)
	}
	b.Close()
	root.Finish()

	td, ok := tracer.TraceByID(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	byName := map[string]trace.SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
		if !s.Finished() {
			t.Errorf("span %s left open", s.Name)
		}
	}
	for _, want := range []string{"api", "serve.request", "serve.queue_wait", "serve.execute"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing span %q:\n%s", want, trace.Tree(td))
		}
	}
	if got := spanAttr(byName["serve.execute"], "batch_size"); got != "1" {
		t.Errorf("execute batch_size attr = %q, want 1", got)
	}
	if byName["serve.request"].Parent != byName["api"].ID {
		t.Error("serve.request is not a child of the caller's span")
	}
	if got := spanAttr(byName["serve.request"], "error"); got != "" {
		t.Errorf("successful request carries error attr %q", got)
	}
}

// spanAttr returns the value of a span's named attribute ("" if absent).
func spanAttr(d trace.SpanData, key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

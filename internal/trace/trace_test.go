package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// buildSample records a small deterministic trace against a manual
// clock: root [0,4] with children a [0.5,2] (grandchild a1 [1,1.8]) and
// b [2.5,3.5].
func buildSample(seed uint64) *Tracer {
	now := 0.0
	t := New(seed, func() float64 { return now })
	root := t.StartTrace("root", telemetry.String("user", "alice"))
	now = 0.5
	a := root.StartChild("a")
	now = 1
	a1 := a.StartChild("a1")
	now = 1.8
	a1.Finish()
	now = 2
	a.Finish()
	now = 2.5
	b := root.StartChild("b", telemetry.Int("batch", 3))
	now = 3.5
	b.Finish()
	now = 4
	root.Finish()
	return t
}

func TestDeterministicIDs(t *testing.T) {
	a := buildSample(42).Traces()
	b := buildSample(42).Traces()
	c := buildSample(43).Traces()
	if len(a) != 1 || len(a[0].Spans) != 4 {
		t.Fatalf("want 1 trace with 4 spans, got %+v", a)
	}
	for i := range a[0].Spans {
		if a[0].Spans[i].ID != b[0].Spans[i].ID {
			t.Fatalf("same seed produced different span IDs: %v vs %v", a[0].Spans[i], b[0].Spans[i])
		}
	}
	if a[0].ID == c[0].ID {
		t.Fatalf("different seeds produced the same trace ID %s", a[0].ID)
	}
	seen := map[ID]bool{}
	for _, s := range a[0].Spans {
		if s.ID == 0 || seen[s.ID] {
			t.Fatalf("zero or duplicate span ID in %+v", a[0].Spans)
		}
		seen[s.ID] = true
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("x")
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	// All of these must no-op rather than panic.
	child := sp.StartChild("y")
	child.Annotate(telemetry.String("k", "v"))
	child.Finish()
	sp.FinishAt(2)
	if sp.TraceID() != 0 || sp.SpanID() != 0 || sp.StartTime() != 0 {
		t.Fatal("nil span must report zero IDs and start time")
	}
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces = %v, want nil", got)
	}
	if _, ok := tr.TraceByID(1); ok {
		t.Fatal("nil tracer TraceByID must miss")
	}
	if _, ok := tr.Longest(); ok {
		t.Fatal("nil tracer Longest must miss")
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracer Len must be 0")
	}
}

func TestFinishIdempotentAndAnnotate(t *testing.T) {
	now := 0.0
	tr := New(1, func() float64 { return now })
	sp := tr.StartTrace("job")
	now = 2
	sp.Finish()
	now = 5
	sp.Finish() // second finish must keep End=2
	sp.Annotate(telemetry.String("outcome", "ok"))
	td, _ := tr.TraceByID(sp.TraceID())
	root, _ := td.Root()
	if root.End != 2 {
		t.Fatalf("End = %v after double finish, want 2", root.End)
	}
	if want := (telemetry.Attr{Key: "outcome", Value: "ok"}); len(root.Attrs) != 1 || root.Attrs[0] != want {
		t.Fatalf("post-finish annotation lost: %+v", root.Attrs)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr := New(1, nil)
	sp := tr.StartTrace("job", telemetry.String("k", "v"))
	td, _ := tr.TraceByID(sp.TraceID())
	td.Spans[0].Attrs[0].Value = "mutated"
	td2, _ := tr.TraceByID(sp.TraceID())
	if td2.Spans[0].Attrs[0].Value != "v" {
		t.Fatal("snapshot attrs alias the tracer's store")
	}
}

func TestFindAndLongest(t *testing.T) {
	now := 0.0
	tr := New(9, func() float64 { return now })
	a := tr.StartTrace("lease r-1")
	now = 1
	a.Finish()
	b := tr.StartTrace("lease r-2")
	now = 4
	b.Finish()
	if td, ok := tr.Find("lease r-2"); !ok || td.ID != b.TraceID() {
		t.Fatalf("exact-name find failed: %v %v", td, ok)
	}
	if td, ok := tr.Find("lease"); !ok || td.ID != a.TraceID() {
		t.Fatalf("prefix find should return first trace in creation order: %v %v", td, ok)
	}
	hex := b.TraceID().String()[:6]
	if td, ok := tr.Find(hex); !ok || td.ID != b.TraceID() {
		t.Fatalf("hex-prefix find failed for %q", hex)
	}
	if td, ok := tr.Find("r-2"); !ok || td.ID != b.TraceID() {
		t.Fatalf("substring find failed: %v %v", td, ok)
	}
	if _, ok := tr.Find("nope"); ok {
		t.Fatal("find should miss on unknown query")
	}
	if td, ok := tr.Longest(); !ok || td.ID != b.TraceID() {
		t.Fatalf("longest should be r-2 (3h): %v %v", td, ok)
	}
}

func TestCriticalPath(t *testing.T) {
	tr := buildSample(42)
	td, _ := tr.TraceByID(tr.Traces()[0].ID)
	steps := CriticalPath(td)
	var names []string
	total := 0.0
	for _, st := range steps {
		names = append(names, st.Span.Name)
		total += st.Self
	}
	// Backward scan from root end 4: b ends 3.5 (root self 0.5), then from
	// b.Start=2.5 child a ends 2 (root self +0.5), then a1 inside a.
	want := "root,a,a1,b"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("critical path = %s, want %s", got, want)
	}
	root, _ := td.Root()
	if diff := total - root.Duration(); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("self-time sum %v != root duration %v", total, root.Duration())
	}
	// Per-span self-times.
	selves := map[string]float64{}
	for _, st := range steps {
		selves[st.Span.Name] = st.Self
	}
	if selves["root"] != 1.5 || selves["a"] != 0.7 || selves["a1"] != 0.8 || selves["b"] != 1.0 {
		t.Fatalf("unexpected self-times: %v", selves)
	}
}

func TestCriticalPathOpenAndConcurrentChildren(t *testing.T) {
	now := 0.0
	tr := New(5, func() float64 { return now })
	root := tr.StartTrace("root")
	open := root.StartChild("never-finished")
	now = 1
	x := root.StartChild("x")
	now = 3
	x.Finish()
	y := root.StartChildAt("y", 1) // overlaps x, ends later
	y.FinishAt(3.5)
	now = 4
	root.Finish()
	_ = open
	td, _ := tr.TraceByID(root.TraceID())
	steps := CriticalPath(td)
	var names []string
	for _, st := range steps {
		names = append(names, st.Span.Name)
	}
	// y ends latest (3.5); x ends 3 > y.Start=1 is not <= cursor 1 after
	// descending, so path is root -> y only; the open span contributes 0.
	if got := strings.Join(names, ","); got != "root,y" {
		t.Fatalf("critical path = %s, want root,y", got)
	}
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	e1 := Chrome(buildSample(42).Traces())
	e2 := Chrome(buildSample(42).Traces())
	if !bytes.Equal(e1, e2) {
		t.Fatal("same seed + workload produced different Chrome exports")
	}
	if !json.Valid(e1) {
		t.Fatalf("export is not valid JSON:\n%s", e1)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(e1, &doc); err != nil {
		t.Fatal(err)
	}
	// 1 metadata event + 4 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("want 5 events, got %d", len(doc.TraceEvents))
	}
	var sawX bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			sawX = true
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event missing numeric ts: %v", ev)
			}
		}
	}
	if !sawX {
		t.Fatal("no complete events in export")
	}
}

func TestTreeRendering(t *testing.T) {
	tr := buildSample(42)
	out := Tree(tr.Traces()[0])
	for _, want := range []string{"root", "- a", "  - a1", "- b", "user=alice", "batch=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(open)") {
		t.Fatalf("all spans finished, but tree marks one open:\n%s", out)
	}
}

// TestConcurrentSpans exercises the tracer under the race detector:
// many goroutines growing sibling subtrees of one trace while readers
// snapshot it.
func TestConcurrentSpans(t *testing.T) {
	tr := New(7, nil)
	root := tr.StartTrace("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := root.StartChild("worker")
			for i := 0; i < 50; i++ {
				c := sub.StartChild("op")
				c.Annotate(telemetry.Int("i", i))
				c.Finish()
			}
			sub.Finish()
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Traces()
				_ = Chrome(tr.Traces())
			}
		}
	}()
	wg.Wait()
	close(done)
	root.Finish()
	td, _ := tr.TraceByID(root.TraceID())
	if got := len(td.Spans); got != 1+8+8*50 {
		t.Fatalf("span count = %d, want %d", got, 1+8+8*50)
	}
	seen := map[ID]bool{}
	for _, s := range td.Spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %s under concurrency", s.ID)
		}
		seen[s.ID] = true
	}
}

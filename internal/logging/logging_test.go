package logging

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestNilSafety(t *testing.T) {
	var l *Logger
	c := l.Component("cloud")
	if c != nil {
		t.Fatalf("nil logger Component = %v, want nil", c)
	}
	// Every method on a nil component must no-op without panicking.
	c.Info("b", Str("k", "v"))
	c.Warn("c")
	c.Error("d")
	c.InfoT(nil, "e")
	if got := c.Records(); got != nil {
		t.Fatalf("nil component Records = %v, want nil", got)
	}
	if c.Dropped() != 0 || c.Name() != "" {
		t.Fatal("nil component Dropped/Name not zero")
	}
	l.SetTelemetry(nil)
	if l.Records(0) != nil || l.Dropped() != 0 {
		t.Fatal("nil logger queries not empty")
	}
}

func TestLevelsAndFiltering(t *testing.T) {
	l := New(1, nil)
	c := l.Component("sched")
	c.Info("kept info")
	c.Warn("kept warn")
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		ok   bool
	}{
		{"debug", LevelInfo, false},
		{"INFO", LevelInfo, true},
		{" warn ", LevelWarn, true},
		{"warning", LevelWarn, true},
		{"Error", LevelError, true},
		{"fatal", LevelInfo, false},
	}
	for _, tc := range cases {
		got, ok := ParseLevel(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseLevel(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRingEvictionOldestFirst(t *testing.T) {
	l := New(1, nil)
	c := l.Component("jobs")
	for i := 1; i <= DefaultRingSize+2; i++ {
		c.Info(fmt.Sprintf("r%d", i))
	}
	recs := c.Records()
	if len(recs) != DefaultRingSize {
		t.Fatalf("ring holds %d, want %d", len(recs), DefaultRingSize)
	}
	if recs[0].Msg != "r3" || recs[len(recs)-1].Msg != fmt.Sprintf("r%d", DefaultRingSize+2) {
		t.Errorf("ring spans %q..%q, want r3..r%d", recs[0].Msg, recs[len(recs)-1].Msg, DefaultRingSize+2)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Seq >= recs[i].Seq {
			t.Fatalf("records not in ascending Seq order at %d: %d %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
	if c.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", c.Dropped())
	}
	if l.Dropped() != 2 {
		t.Errorf("logger Dropped = %d, want 2", l.Dropped())
	}
}

func TestMergedRecordsEmissionOrder(t *testing.T) {
	l := New(1, nil)
	a := l.Component("alpha")
	b := l.Component("beta")
	a.Info("a1")
	b.Info("b1")
	a.Info("a2")
	b.Info("b2")
	recs := l.Records(0)
	var got []string
	for i := range recs {
		got = append(got, recs[i].Msg)
	}
	want := []string{"a1", "b1", "a2", "b2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("merged order = %v, want %v", got, want)
	}
	tail := l.Records(2)
	if len(tail) != 2 || tail[0].Msg != "a2" || tail[1].Msg != "b2" {
		t.Fatalf("Records(2) = %v, want last two records", tail)
	}
}

func TestSimClockTimestampsAndRange(t *testing.T) {
	now := 0.0
	l := New(1, func() float64 { return now })
	c := l.Component("cloud")
	for _, tm := range []float64{0.5, 1.0, 2.5, 4.0} {
		now = tm
		c.Info("tick")
	}
	in := l.Range(1.0, 2.5)
	if len(in) != 2 || in[0].T != 1.0 || in[1].T != 2.5 {
		t.Fatalf("Range(1.0, 2.5) = %v, want records at t=1.0 and t=2.5", in)
	}
}

func TestAttrs(t *testing.T) {
	l := New(1, nil)
	c := l.Component("serve")
	c.Info("m", Str("pool", "gpu"), Int("n", 42), Float("price", 1.2500), Float("zero", 0))
	r := l.Records(0)[0]
	want := map[string]string{"pool": "gpu", "n": "42", "price": "1.25", "zero": "0"}
	for k, v := range want {
		if got := r.Attr(k); got != v {
			t.Errorf("Attr(%q) = %q, want %q", k, got, v)
		}
	}
	if got := r.Attr("absent"); got != "" {
		t.Errorf("Attr(absent) = %q, want empty", got)
	}
	if r.nattrs != 4 {
		t.Errorf("attrs len = %d, want 4", r.nattrs)
	}
}

func TestAttrTruncation(t *testing.T) {
	l := New(1, nil)
	c := l.Component("x")
	attrs := make([]Attr, MaxAttrs+3)
	for i := range attrs {
		attrs[i] = Int("k", i)
	}
	c.Info("over", attrs...)
	r := l.Records(0)[0]
	if r.nattrs != MaxAttrs {
		t.Fatalf("kept %d attrs, want %d", r.nattrs, MaxAttrs)
	}
	if r.Truncated != 3 {
		t.Fatalf("Truncated = %d, want 3", r.Truncated)
	}
	if !strings.Contains(r.String(), "(+3 attrs dropped)") {
		t.Fatalf("render missing truncation marker: %q", r.String())
	}
}

func TestTraceCorrelation(t *testing.T) {
	tr := trace.New(7, func() float64 { return 0 })
	sp := tr.StartTrace("req")
	l := New(1, nil)
	c := l.Component("lease")
	c.InfoT(sp, "acquired")
	c.Info("uncorrelated")
	sp.FinishAt(0.1)
	recs := l.Records(0)
	if recs[0].Trace != sp.TraceID() || recs[0].Span != sp.SpanID() {
		t.Fatalf("traced record IDs = %v/%v, want %v/%v", recs[0].Trace, recs[0].Span, sp.TraceID(), sp.SpanID())
	}
	if recs[1].Trace != 0 {
		t.Fatalf("untraced record Trace = %v, want 0", recs[1].Trace)
	}
	if !strings.Contains(recs[0].String(), "trace="+sp.TraceID().String()) {
		t.Fatalf("render missing trace ID: %q", recs[0].String())
	}
	if strings.Contains(recs[1].String(), "trace=") {
		t.Fatalf("untraced render has trace ID: %q", recs[1].String())
	}
	// Filter by trace prefix.
	got := Filter(recs, "", LevelInfo, sp.TraceID().String()[:6], -1)
	if len(got) != 1 || got[0].Msg != "acquired" {
		t.Fatalf("trace filter = %v, want just the correlated record", got)
	}
}

func TestFilter(t *testing.T) {
	now := 0.0
	l := New(1, func() float64 { return now })
	a := l.Component("a")
	b := l.Component("b")
	a.Info("a-info")
	now = 1.0
	a.Warn("a-warn")
	b.Error("b-error")
	all := l.Records(0)
	if got := Filter(all, "a", LevelInfo, "", -1); len(got) != 2 {
		t.Fatalf("component filter kept %d, want 2", len(got))
	}
	if got := Filter(all, "", LevelWarn, "", -1); len(got) != 2 {
		t.Fatalf("level filter kept %d, want 2", len(got))
	}
	if got := Filter(all, "", LevelInfo, "", 1.0); len(got) != 2 {
		t.Fatalf("since filter kept %d, want 2", len(got))
	}
	if got := Filter(all, "a", LevelWarn, "", 1.0); len(got) != 1 || got[0].Msg != "a-warn" {
		t.Fatalf("combined filter = %v, want [a-warn]", got)
	}
}

func TestLogRecordCounters(t *testing.T) {
	bus := telemetry.New()
	l := New(1, nil)
	l.SetTelemetry(bus)
	c := l.Component("cloud")
	c.Info("a")
	c.Info("b")
	c.Warn("c")
	snap := bus.Snapshot()
	got := map[string]float64{}
	for _, inst := range snap {
		if strings.HasPrefix(inst.Name, "log.records") {
			got[inst.Name] = inst.Value
		}
	}
	wantInfo := telemetry.Labeled("log.records",
		telemetry.String("component", "cloud"), telemetry.String("level", "info"))
	wantWarn := telemetry.Labeled("log.records",
		telemetry.String("component", "cloud"), telemetry.String("level", "warn"))
	if got[wantInfo] != 2 {
		t.Errorf("%s = %v, want 2", wantInfo, got[wantInfo])
	}
	if got[wantWarn] != 1 {
		t.Errorf("%s = %v, want 1", wantWarn, got[wantWarn])
	}
	for name := range got {
		if strings.Contains(name, "level=debug") {
			t.Errorf("%s is registered; there is no debug level", name)
		}
	}
}

func TestDeterministicRecordsAcrossRuns(t *testing.T) {
	run := func() string {
		now := 0.0
		l := New(99, func() float64 { return now })
		tr := trace.New(99, func() float64 { return now })
		a := l.Component("cloud")
		b := l.Component("sched")
		for i := 0; i < 40; i++ {
			now = float64(i) * 0.25
			sp := tr.StartTrace("op")
			if i%2 == 0 {
				a.InfoT(sp, "even op", Int("i", i))
			}
			if i%7 == 0 {
				b.Warn("periodic", Float("t", now))
			}
			sp.FinishAt(now + 0.01)
		}
		return Render(l.Records(0))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed renders differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("render empty")
	}
}

// TestEmitAllocs is the hot-path allocation contract: a steady-state
// emit (ring write, counter bump), plain or traced, must cost at most
// 1 alloc/op. The variadic attr array is the one allowed allocation;
// everything else lands in preallocated ring slots. Merging 2,048
// records stays within 14 allocations. The emits are the benchmark
// bodies, attrs as literals.
func TestEmitAllocs(t *testing.T) {
	bus := telemetry.New()
	now := 0.0
	l := New(1, func() float64 { return now })
	l.SetTelemetry(bus)
	c := l.Component("serve")
	if got := testing.AllocsPerRun(1000, func() { emitRetained(c) }); got > 1 {
		t.Fatalf("log emit = %v allocs/op, want <= 1", got)
	}
	sp := trace.New(1, func() float64 { return now }).StartTrace("serve")
	defer sp.FinishAt(1)
	if got := testing.AllocsPerRun(1000, func() { emitTraced(c, sp) }); got > 1 {
		t.Fatalf("traced emit = %v allocs/op, want <= 1", got)
	}
	merged := mergeFixture()
	if got := testing.AllocsPerRun(10, func() { merged.Records(0) }); got > 14 {
		t.Fatalf("Records(0) over 2048 records = %v allocs/op, want <= 14", got)
	}
}

func TestConcurrentEmit(t *testing.T) {
	bus := telemetry.New()
	l := New(1, nil)
	l.SetTelemetry(bus)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := l.Component("shared")
			mine := l.Component("goroutine")
			for i := 0; i < 200; i++ {
				c.Info("shared emit", Int("g", g), Int("i", i))
				mine.Warn("per-goroutine emit")
			}
		}(g)
	}
	wg.Wait()
	recs := l.Records(0)
	if len(recs) == 0 {
		t.Fatal("no records after concurrent emit")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("merged records out of Seq order at %d", i)
		}
	}
	total := l.Dropped() + uint64(len(recs))
	if total != 8*400 {
		t.Fatalf("retained+dropped = %d, want %d", total, 8*400)
	}
}

func TestRenderShape(t *testing.T) {
	now := 2.5
	l := New(1, func() float64 { return now })
	c := l.Component("cloud")
	c.Warn("spot preemption notice", Str("pool", "gpu"), Int("count", 3))
	line := strings.TrimSuffix(Render(l.Records(0)), "\n")
	want := "t=2.5000h WARN  cloud        spot preemption notice pool=gpu count=3"
	if line != want {
		t.Fatalf("render = %q, want %q", line, want)
	}
}

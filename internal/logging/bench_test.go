package logging

import (
	"testing"

	"repro/internal/trace"
)

// mergeFixture is a logger holding 2,048 records spread round-robin over
// four components, the read side `chameleonctl logs` and the flight
// recorder's window capture merge.
func mergeFixture() *Logger {
	now := 0.0
	l := New(1, func() float64 { return now })
	comps := []*Component{
		l.Component("cloud"), l.Component("sched"),
		l.Component("serve"), l.Component("chaos"),
	}
	for i := 0; i < 2048; i++ {
		now = float64(i) * 0.01
		comps[i%len(comps)].Info("transition", Int("i", i))
	}
	return l
}

// The emit bodies pass their attrs as literals, as instrumented code
// does, so each call builds its variadic array afresh. The benchmarks
// time them and TestEmitAllocs holds them to their allocation ceilings:
// both measure the same calls.

// emitRetained is the hot emit path every instrumented subsystem pays
// per state transition: level check, sequence stamp, ring-slot write,
// counter bump.
func emitRetained(c *Component) {
	c.Info("instance active",
		Str("id", "inst-000042"),
		Str("flavor", "m1.xlarge"),
		Int("attempt", 1))
}

// emitTraced is the correlated path: emit plus trace and span ID
// capture from an open span.
func emitTraced(c *Component, sp *trace.Span) {
	c.WarnT(sp, "preemption notice",
		Str("pool", "gpu_a100"),
		Float("reclaim_at", 2.5))
}

func BenchmarkEmitRetained(b *testing.B) {
	c := New(1, func() float64 { return 0 }).Component("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitRetained(c)
	}
}

func BenchmarkEmitTraced(b *testing.B) {
	now := func() float64 { return 0 }
	c := New(1, now).Component("bench")
	sp := trace.New(1, now).StartTrace("bench")
	defer sp.FinishAt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitTraced(c, sp)
	}
}

// BenchmarkRecordsMerge measures merging the per-component rings into
// one emission-ordered slice.
func BenchmarkRecordsMerge(b *testing.B) {
	l := mergeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(l.Records(0)) == 0 {
			b.Fatal("no records")
		}
	}
}

package alert

import (
	"fmt"
	"testing"

	"repro/internal/tsdb"
)

// TestOnTransitionHookOrdering: multiple subscribers (example narration
// plus the flight recorder) must each see every transition exactly once,
// in registration order per transition, interleaved with the timeline
// append — the flight recorder depends on exactly-once pending→firing
// delivery.
func TestOnTransitionHookOrdering(t *testing.T) {
	e := NewEngine(tsdb.New(tsdb.Options{}))
	e.AddRule(Rule{Name: "Hot", Expr: "g > 5", For: 0.5, Severity: "page"})

	var order []string
	e.OnTransition(func(tr Transition) {
		order = append(order, fmt.Sprintf("first:%s->%s", tr.From, tr.To))
	})
	e.OnTransition(func(tr Transition) {
		order = append(order, fmt.Sprintf("second:%s->%s", tr.From, tr.To))
	})

	stepGauge(e, "g", 1.0, 10) // inactive -> pending
	stepGauge(e, "g", 1.5, 10) // pending -> firing
	stepGauge(e, "g", 2.0, 1)  // firing -> inactive

	want := []string{
		"first:inactive->pending", "second:inactive->pending",
		"first:pending->firing", "second:pending->firing",
		"first:firing->inactive", "second:firing->inactive",
	}
	if len(order) != len(want) {
		t.Fatalf("hook calls = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hook call order[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
	if len(e.Timeline()) != 3 {
		t.Fatalf("timeline has %d transitions, want 3", len(e.Timeline()))
	}
}

// TestOnTransitionHookSeesTimelineEntry: when a hook runs, the
// transition it receives is already in the timeline — the flight
// recorder snapshots engine state from inside the hook.
func TestOnTransitionHookSeesTimelineEntry(t *testing.T) {
	e := NewEngine(tsdb.New(tsdb.Options{}))
	e.AddRule(Rule{Name: "Now", Expr: "g > 0", For: 0})
	e.OnTransition(func(tr Transition) {
		tl := e.Timeline()
		if len(tl) == 0 {
			t.Fatal("hook ran before the timeline append")
		}
		last := tl[len(tl)-1]
		if last.At != tr.At || last.Rule != tr.Rule || last.From != tr.From || last.To != tr.To {
			t.Fatalf("timeline tail %+v != hook transition %+v", last, tr)
		}
	})
	stepGauge(e, "g", 1, 1)
	if len(e.Timeline()) != 2 { // For=0: inactive->pending, pending->firing
		t.Fatalf("timeline = %v", e.Timeline())
	}
}

// TestFiringResolvedUnderCompact: a firing alert whose underlying series
// loses points to retention Compact must still resolve
// exactly once (when the selector goes stale), with no spurious
// re-fire — the pending→firing and firing→inactive edges each appear
// once in both the timeline and the hook stream.
func TestFiringResolvedUnderCompact(t *testing.T) {
	db := tsdb.New(tsdb.Options{Retention: 4.0})
	e := NewEngine(db)
	e.AddRule(Rule{Name: "Deep", Expr: "depth > 5", For: 0.5, Severity: "page"})

	fired, resolved := 0, 0
	e.OnTransition(func(tr Transition) {
		switch {
		case tr.To == StateFiring:
			fired++
		case tr.From == StateFiring && tr.To == StateInactive:
			resolved++
		}
	})

	// Condition holds from t=1.0 to t=3.0 with a Compact after every
	// step.
	for _, tm := range []float64{1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0} {
		db.AppendRef(db.Ref("depth", nil), tm, 10)
		db.Compact(tm)
		e.Step(tm)
	}
	if fired != 1 {
		t.Fatalf("fired %d times while condition held under Compact, want exactly 1", fired)
	}
	if got := e.Active(); len(got) != 1 || got[0].State != StateFiring {
		t.Fatalf("active after sustained condition: %+v", got)
	}

	// The series stops being written; keep compacting and stepping. Once
	// the last sample ages past the lookback the selector returns nothing and
	// the instance must resolve — once.
	for _, tm := range []float64{3.5, 4.0, 4.5, 5.0, 5.5, 6.0} {
		db.Compact(tm)
		e.Step(tm)
	}
	if resolved != 1 {
		t.Fatalf("resolved %d times after series went stale under Compact, want exactly 1", resolved)
	}
	if got := e.Active(); len(got) != 0 {
		t.Fatalf("instances still active after resolve: %+v", got)
	}
	if fired != 1 {
		t.Fatalf("fired count moved to %d after resolve, want 1 (no re-fire)", fired)
	}

	// Retention eventually deletes the series entirely; further steps
	// must not produce new transitions.
	before := len(e.Timeline())
	for _, tm := range []float64{8.0, 9.0, 10.0} {
		db.Compact(tm)
		e.Step(tm)
	}
	if got := len(e.Timeline()); got != before {
		t.Fatalf("timeline grew from %d to %d after series deletion", before, got)
	}
}

package alert

import (
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// stepGauge appends a gauge sample and runs one engine step at t.
func stepGauge(e *Engine, name string, t, v float64) {
	e.db.AppendRef(e.db.Ref(name, nil), t, v)
	e.Step(t)
}

func TestPendingStaysUntilContinuouslyTrue(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	e := NewEngine(db)
	e.AddRule(Rule{Name: "HighDepth", Expr: "depth > 5", For: 0.5, Severity: "page"})

	stepGauge(e, "depth", 1.0, 10) // condition starts holding
	if got := e.Active(); len(got) != 1 || got[0].State != StatePending {
		t.Fatalf("after first true step: %+v", got)
	}
	stepGauge(e, "depth", 1.25, 10) // held 0.25h < For
	if got := e.Active(); got[0].State != StatePending {
		t.Fatalf("still inside For window: %+v", got)
	}
	stepGauge(e, "depth", 1.5, 10) // held 0.5h >= For
	got := e.Active()
	if got[0].State != StateFiring || got[0].FiredAt != 1.5 {
		t.Fatalf("should fire at 1.5: %+v", got)
	}
	stepGauge(e, "depth", 1.75, 2) // condition clears
	if got := e.Active(); len(got) != 0 {
		t.Fatalf("should resolve: %+v", got)
	}

	want := []string{
		"t=1.00h HighDepth{} inactive -> pending (value 10)",
		"t=1.50h HighDepth{} pending -> firing (value 10)",
		"t=1.75h HighDepth{} firing -> inactive (value 10)",
	}
	lines := strings.Split(strings.TrimSpace(RenderTimeline(e.Timeline())), "\n")
	if len(lines) != len(want) {
		t.Fatalf("timeline:\n%s", RenderTimeline(e.Timeline()))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("timeline[%d] = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestFlappingResetsPendingClock(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	e := NewEngine(db)
	e.AddRule(Rule{Name: "Flap", Expr: "g > 5", For: 0.5})

	stepGauge(e, "g", 1.0, 10)  // pending, ActiveSince=1.0
	stepGauge(e, "g", 1.25, 0)  // clears -> resolved
	stepGauge(e, "g", 1.5, 10)  // pending again, clock restarts
	stepGauge(e, "g", 1.75, 10) // held only 0.25h since restart
	got := e.Active()
	if len(got) != 1 || got[0].State != StatePending || got[0].ActiveSince != 1.5 {
		t.Fatalf("flap must reset the pending clock: %+v", got)
	}
	stepGauge(e, "g", 2.0, 10) // now continuously true for 0.5h
	if got := e.Active(); got[0].State != StateFiring {
		t.Fatalf("should fire after continuous window: %+v", got)
	}
}

func TestZeroForFiresImmediately(t *testing.T) {
	e := NewEngine(tsdb.New(tsdb.Options{}))
	e.AddRule(Rule{Name: "Now", Expr: "g > 0", For: 0})
	stepGauge(e, "g", 1, 1)
	got := e.Active()
	if len(got) != 1 || got[0].State != StateFiring || got[0].FiredAt != 1 {
		t.Fatalf("For=0 must fire on first evaluation: %+v", got)
	}
	tl := e.Timeline()
	if len(tl) != 2 || tl[0].To != StatePending || tl[1].To != StateFiring {
		t.Fatalf("timeline: %+v", tl)
	}
}

func TestPerLabelSetInstances(t *testing.T) {
	e := NewEngine(tsdb.New(tsdb.Options{}))
	e.AddRule(Rule{Name: "Hot", Expr: "load > 5", For: 0})
	db := e.db
	db.AppendRef(db.Ref("load", tsdb.NewLabels(tsdb.L("host", "a"))), 1, 10)
	db.AppendRef(db.Ref("load", tsdb.NewLabels(tsdb.L("host", "b"))), 1, 3)
	e.Step(1)
	got := e.Active()
	if len(got) != 1 || got[0].Labels.Get("host") != "a" {
		t.Fatalf("only host=a should alert: %+v", got)
	}
	// host=b crosses, host=a recovers: independent lifecycles.
	db.AppendRef(db.Ref("load", tsdb.NewLabels(tsdb.L("host", "a"))), 1.25, 1)
	db.AppendRef(db.Ref("load", tsdb.NewLabels(tsdb.L("host", "b"))), 1.25, 9)
	e.Step(1.25)
	got = e.Active()
	if len(got) != 1 || got[0].Labels.Get("host") != "b" {
		t.Fatalf("instances must be independent: %+v", got)
	}
}

func TestEmptyRulesetIsNoOp(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	db.AppendRef(db.Ref("g", nil), 1, 5)
	e := NewEngine(db)
	for i := 0; i < 10; i++ {
		e.Step(1 + float64(i)*0.25)
	}
	if got := db.Select("g", nil); db.SeriesCount() != 1 || len(got) != 1 || len(got[0].Points) != 1 {
		t.Errorf("armed engine with no rules changed the DB: %d series, %+v", db.SeriesCount(), got)
	}
	if len(e.Timeline()) != 0 || len(e.Active()) != 0 || len(e.Errors()) != 0 {
		t.Error("armed engine with no rules produced output")
	}
}

func TestRuleErrorsAreCollectedAndDeduped(t *testing.T) {
	e := NewEngine(tsdb.New(tsdb.Options{}))
	e.AddRule(Rule{Name: "Bad", Expr: "rate(x)", For: 0})
	e.AddRule(Rule{Name: "Scalar", Expr: "1 + 1", For: 0})
	e.Step(1)
	e.Step(1.25)
	errs := e.Errors()
	if len(errs) != 2 {
		t.Fatalf("errors = %v", errs)
	}
	for _, want := range []string{"Bad", "Scalar"} {
		found := false
		for _, msg := range errs {
			if strings.HasPrefix(msg, want+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("no error recorded for %s: %v", want, errs)
		}
	}
}

func TestOnTransitionHookSeesEveryTransition(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	eng := NewEngine(db)
	eng.AddRule(Rule{Name: "HighDepth", Expr: "depth > 5", For: 0.5, Severity: "page"})
	var seen []Transition
	eng.OnTransition(func(tr Transition) { seen = append(seen, tr) })
	for i, v := range []float64{10, 10, 10, 1} {
		stepGauge(eng, "depth", 1.0+0.25*float64(i), v)
	}
	want := eng.Timeline()
	if len(seen) != len(want) {
		t.Fatalf("hook saw %d transitions, timeline has %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i].String() != want[i].String() {
			t.Errorf("transition %d: hook %q vs timeline %q", i, seen[i], want[i])
		}
	}
	if len(seen) == 0 {
		t.Fatal("expected at least one transition")
	}
}

func TestTimelineDeterministic(t *testing.T) {
	run := func() string {
		e := NewEngine(tsdb.New(tsdb.Options{}))
		e.AddRule(Rule{Name: "A", Expr: "m > 1", For: 0.25})
		e.AddRule(Rule{Name: "B", Expr: "m > 3", For: 0})
		for i := 0; i <= 12; i++ {
			now := float64(i) * 0.25
			e.db.AppendRef(e.db.Ref("m", tsdb.NewLabels(tsdb.L("k", "x"))), now, float64(i%5))
			e.db.AppendRef(e.db.Ref("m", tsdb.NewLabels(tsdb.L("k", "y"))), now, float64((i+2)%5))
			e.Step(now)
		}
		return RenderTimeline(e.Timeline())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("timeline not reproducible:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Error("scenario produced no transitions; test is vacuous")
	}
}

package flightrec

import (
	"reflect"
	"testing"

	"repro/internal/alert"
	"repro/internal/logging"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// buildRun drives a small seeded scenario to a firing alert and returns
// the recorder: a queue-depth gauge breaches at t=2.0 and fires at
// t=2.5 (For 0.5), with logs and traces laid down along the way.
func buildRun(t *testing.T) (*Recorder, *alert.Engine) {
	t.Helper()
	db := tsdb.New(tsdb.Options{})
	eng := alert.NewEngine(db)
	eng.AddRule(alert.Rule{Name: "DeepQueue", Expr: "avg_over_time(queue.depth[1h]) > 5", For: 0.5, Severity: "page"})

	now := 0.0
	logs := logging.New(7, func() float64 { return now })
	tracer := trace.New(7, func() float64 { return now })
	comp := logs.Component("sched")

	rec := New(Config{
		Engine:    eng,
		DB:        db,
		Logs:      logs,
		Tracer:    tracer,
		Dashboard: func(at float64) string { return "dash@" + tsdb.Labels{{Key: "t", Value: "x"}}.Signature() },
	})
	rec.Arm()
	rec.Arm() // idempotent

	depth := []float64{1, 1, 8, 9, 10, 10, 2, 1}
	for i, v := range depth {
		now = float64(i) * 0.5
		sp := tracer.StartTrace("scrape")
		comp.InfoT(sp, "queue sampled", logging.Float("depth", v))
		db.AppendRef(db.Ref("queue.depth", nil), now, v)
		sp.FinishAt(now + 0.1*float64(i%3))
		eng.Step(now)
	}
	return rec, eng
}

func TestCaptureOnFiring(t *testing.T) {
	rec, _ := buildRun(t)
	incs := rec.Incidents()
	if len(incs) != 1 {
		t.Fatalf("captured %d incidents, want 1", len(incs))
	}
	inc := incs[0]
	if inc.ID != 1 || inc.Rule != "DeepQueue" || inc.Severity != "page" {
		t.Fatalf("identity fields: %+v", inc)
	}
	// avg_over_time holds from t=1.0 (avg of window crosses 5 at the
	// third sample); pending at first true eval, fires 0.5h later.
	if inc.FiredAt <= inc.PendingAt {
		t.Fatalf("FiredAt %v <= PendingAt %v", inc.FiredAt, inc.PendingAt)
	}
	// Window: PendingAt - range(1h) - lead(1h), clamped at 0.
	wantFrom := inc.PendingAt - 1.0 - 1.0
	if wantFrom < 0 {
		wantFrom = 0
	}
	if inc.WindowFrom != wantFrom || inc.WindowTo != inc.FiredAt {
		t.Fatalf("window [%v, %v], want [%v, %v]", inc.WindowFrom, inc.WindowTo, wantFrom, inc.FiredAt)
	}
	if len(inc.Exprs) != 1 || inc.Exprs[0] != "avg_over_time(queue.depth[1h]) > 5" {
		t.Fatalf("Exprs = %v", inc.Exprs)
	}
	if inc.Dashboard == "" {
		t.Fatal("dashboard snapshot missing")
	}
	// Series dump: queue.depth points inside the window only.
	if len(inc.Series) != 1 || inc.Series[0].Name != "queue.depth" {
		t.Fatalf("series = %+v", inc.Series)
	}
	for _, p := range inc.Series[0].Points {
		if p.T < inc.WindowFrom || p.T > inc.WindowTo {
			t.Fatalf("series point t=%v outside window [%v, %v]", p.T, inc.WindowFrom, inc.WindowTo)
		}
	}
	// Logs: only records inside the window.
	if len(inc.Logs) == 0 {
		t.Fatal("no logs captured")
	}
	for _, r := range inc.Logs {
		if r.T < inc.WindowFrom || r.T > inc.WindowTo {
			t.Fatalf("log at t=%v outside window", r.T)
		}
	}
	// Traces: bounded by maxTraces, ranked by cost descending, critical
	// paths attached.
	if len(inc.Traces) != 3 {
		t.Fatalf("embedded %d traces, want 3 (maxTraces)", len(inc.Traces))
	}
	if c := inc.Traces; c[0].Cost < c[1].Cost || c[1].Cost < c[2].Cost {
		t.Fatalf("traces not cost-ranked: %v, %v, %v", c[0].Cost, c[1].Cost, c[2].Cost)
	}
	for _, it := range inc.Traces {
		if len(it.Critical) == 0 {
			t.Fatalf("trace %s missing critical path", it.Data.ID)
		}
	}
}

func TestResolveStampsIncident(t *testing.T) {
	rec, _ := buildRun(t)
	inc, ok := rec.Incident(1)
	if !ok {
		t.Fatal("incident 1 missing")
	}
	// The depth drops to 2 then 1 at the end of the run, so the alert
	// resolved once avg_over_time fell below threshold.
	if inc.ResolvedAt < 0 {
		t.Fatalf("incident never resolved: %+v", inc)
	}
	if inc.ResolvedAt <= inc.FiredAt {
		t.Fatalf("ResolvedAt %v <= FiredAt %v", inc.ResolvedAt, inc.FiredAt)
	}
}

func TestArmedButQuietCapturesNothing(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	eng := alert.NewEngine(db)
	eng.AddRule(alert.Rule{Name: "Never", Expr: "g > 1e9", For: 0})
	rec := New(Config{Engine: eng, DB: db})
	rec.Arm()
	for i := 0; i < 20; i++ {
		db.AppendRef(db.Ref("g", nil), float64(i), 1)
		eng.Step(float64(i))
	}
	if rec.Captures() != 0 || len(rec.Incidents()) != 0 {
		t.Fatalf("quiet recorder captured %d incidents", rec.Captures())
	}
}

func TestSLOBurnRuleCapture(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	eng := alert.NewEngine(db)
	eng.AddSLO(alert.SLO{
		Name:      "kept",
		Objective: 0.99,
		Good:      `steps{outcome="ok"}`,
		Total:     "steps.total",
		Window:    24,
	})
	rec := New(Config{Engine: eng, DB: db})
	rec.Arm()
	// Drive a hard burn: everything fails, so every burn window fires.
	ok, total := 0.0, 0.0
	for i := 0; i <= 8; i++ {
		now := float64(i) * 0.25
		total += 10
		db.AppendRef(db.Ref("steps", tsdb.Labels{{Key: "outcome", Value: "ok"}}), now, ok)
		db.AppendRef(db.Ref("steps.total", nil), now, total)
		eng.Step(now)
	}
	incs := rec.Incidents()
	if len(incs) == 0 {
		t.Fatal("burn rules never fired — scenario broken")
	}
	for _, inc := range incs {
		slo, sev, isBurn := cutBurn(inc.Rule)
		if !isBurn || slo != "kept" {
			t.Fatalf("unexpected rule %q", inc.Rule)
		}
		if inc.Severity != sev {
			t.Fatalf("severity %q, want %q from rule name", inc.Severity, sev)
		}
		if len(inc.Exprs) != 2 {
			t.Fatalf("burn capture Exprs = %v, want Good+Total selectors", inc.Exprs)
		}
		// The page windows are 1h long; the window must reach at least
		// that far behind pending (plus default 1h lead).
		if inc.WindowTo-inc.WindowFrom < 1 && inc.WindowFrom > 0 {
			t.Fatalf("burn window too narrow: [%v, %v]", inc.WindowFrom, inc.WindowTo)
		}
		if len(inc.Series) == 0 {
			t.Fatal("burn capture has no series")
		}
	}
}

func TestMaxIncidentsEvictsOldest(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	eng := alert.NewEngine(db)
	eng.AddRule(alert.Rule{Name: "Flappy", Expr: "g > 5", For: 0})
	rec := New(Config{Engine: eng, DB: db})
	rec.Arm()
	for i := 0; i < 18; i++ {
		at := float64(i)
		db.AppendRef(db.Ref("g", nil), at, 10)
		eng.Step(at)
		db.AppendRef(db.Ref("g", nil), at+0.5, 0)
		eng.Step(at + 0.5)
	}
	incs := rec.Incidents()
	if len(incs) != 16 {
		t.Fatalf("retained %d incidents, want 16", len(incs))
	}
	if incs[0].ID != 3 || incs[15].ID != 18 {
		t.Fatalf("retained IDs %d..%d — want the newest (3..18)", incs[0].ID, incs[15].ID)
	}
	if rec.Captures() != 18 {
		t.Fatalf("Captures = %d, want 18", rec.Captures())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Arm()
	if r.Captures() != 0 || r.Incidents() != nil {
		t.Fatal("nil recorder not inert")
	}
	if _, ok := r.Incident(1); ok {
		t.Fatal("nil recorder returned an incident")
	}
	// A recorder with no engine arms to nothing.
	New(Config{}).Arm()
}

func TestDeterministicBundlesAcrossRuns(t *testing.T) {
	runA, _ := buildRun(t)
	runB, _ := buildRun(t)
	a, b := runA.Incidents(), runB.Incidents()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed bundles differ:\na=%+v\nb=%+v", a, b)
	}
}

package report

import (
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/flightrec"
	"repro/internal/logging"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// incidentRun drives a gauge past an alert threshold with logs and
// traces flowing, a dashboard hook attached, and the recorder armed.
func incidentRun() *flightrec.Recorder {
	db := tsdb.New(tsdb.Options{})
	eng := alert.NewEngine(db)
	eng.AddRule(alert.Rule{Name: "DeepQueue", Expr: "queue.depth > 5", For: 0.5, Severity: "page"})

	now := 0.0
	logs := logging.New(11, func() float64 { return now })
	tracer := trace.New(11, func() float64 { return now })
	comp := logs.Component("sched")

	rec := flightrec.New(flightrec.Config{
		Engine:    eng,
		DB:        db,
		Logs:      logs,
		Tracer:    tracer,
		Dashboard: func(at float64) string { return Dashboard(db, eng, at) },
	})
	rec.Arm()

	for i, v := range []float64{1, 8, 9, 9, 2} {
		now = float64(i) * 0.5
		sp := tracer.StartTrace("scrape")
		comp.WarnT(sp, "queue depth", logging.Float("depth", v))
		db.AppendRef(db.Ref("queue.depth", nil), now, v)
		sp.FinishAt(now + 0.05)
		eng.Step(now)
	}
	return rec
}

func TestIncidentRender(t *testing.T) {
	rec := incidentRun()
	incs := rec.Incidents()
	if len(incs) != 1 {
		t.Fatalf("captured %d incidents, want 1", len(incs))
	}
	out := Incident(incs[0])
	for _, want := range []string{
		"== Incident #1: DeepQueue{} ==",
		"severity:   page",
		"pending:    t=0.50h",
		"fired:      t=1.00h",
		"resolved:   t=2.00h",
		"expr:       queue.depth > 5",
		"-- Dashboard at firing --",
		"== Dashboard (t=1.00h) ==",
		"-- Series in window --",
		"queue.depth",
		"-- Logs in window --",
		"WARN  sched",
		"depth=9",
		"trace=",
		"-- Top-cost traces in window --",
		"critical path of trace",
		"-- Active chaos faults --",
		"(none)",
		"-- Spot notices overlapping window --",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("incident render missing %q:\n%s", want, out)
		}
	}
}

func TestIncidentRenderDeterministic(t *testing.T) {
	a := Incident(incidentRun().Incidents()[0])
	b := Incident(incidentRun().Incidents()[0])
	if a != b {
		t.Fatalf("same-seed incident renders differ:\n%s\nvs\n%s", a, b)
	}
}

func TestIncidentList(t *testing.T) {
	if got := IncidentList(nil); got != "incidents: none captured\n" {
		t.Fatalf("empty list = %q", got)
	}
	out := IncidentList(incidentRun().Incidents())
	for _, want := range []string{"id", "rule", "DeepQueue", "page", "t=1.00h"} {
		if !strings.Contains(out, want) {
			t.Errorf("incident list missing %q:\n%s", want, out)
		}
	}
}

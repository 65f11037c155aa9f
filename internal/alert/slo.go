package alert

import (
	"fmt"
	"sort"

	"repro/internal/tsdb"
)

// SLO is a counter-based service-level objective: over Window hours, at
// least Objective of Total events must be Good. Good and Total are
// PromQL-lite instant selectors naming counters in the TSDB (label
// matchers allowed); increases are summed across every matching series,
// so labeled per-flavor/per-project counters roll up naturally.
//
// Error budget accounting anchors counters at zero: if a series was born
// inside the accounting window, its first sample counts as growth from
// zero. That makes Status().Good/Total reconcile exactly with the raw
// counter totals on the telemetry bus when the window covers the whole
// run — the property the acceptance tests pin.
type SLO struct {
	Name      string
	Objective float64 // fraction of events that must be good, e.g. 0.99
	Good      string  // counter selector, e.g. `train.steps{outcome="ok"}`
	Total     string  // counter selector, e.g. `train.steps`
	Window    float64 // error-budget window in simulated hours

	// sel is Good and Total parsed by Engine.AddSLO into the engine's
	// own copy. An SLO used on its own leaves it nil and parses on use.
	sel *counters
	// burnRules are the names of the engine's copy's burn rules,
	// <Name>:burn:<severity> for each of BurnWindows, built by AddSLO.
	burnRules []string
}

// counters is an SLO's Good and Total parsed, or the error that parsing
// them gave.
type counters struct {
	good, total tsdb.SelectorExpr
	err         error
}

func parseCounters(s *SLO) *counters {
	c := &counters{}
	var err error
	if c.good, err = parseCounter(s.Good); err != nil {
		c.err = fmt.Errorf("good selector: %w", err)
	} else if c.total, err = parseCounter(s.Total); err != nil {
		c.err = fmt.Errorf("total selector: %w", err)
	}
	return c
}

// parseCounter parses a counter selector. Only an instant selector names
// counters: a range selector or any other expression is an error.
func parseCounter(expr string) (tsdb.SelectorExpr, error) {
	e, err := tsdb.ParseExpr(expr)
	if err != nil {
		return tsdb.SelectorExpr{}, fmt.Errorf("%s: %w", expr, err)
	}
	sel, ok := e.(tsdb.SelectorExpr)
	if !ok || sel.Range != 0 {
		return tsdb.SelectorExpr{}, fmt.Errorf("%s is not an instant selector", expr)
	}
	return sel, nil
}

// counters returns Good and Total parsed: once at registration for an
// engine's SLO, on every call for an SLO used on its own.
func (s *SLO) counters() *counters {
	if s.sel != nil {
		return s.sel
	}
	return parseCounters(s)
}

// increase returns the good and total events over the trailing window;
// both are zero when the selectors did not parse.
func (c *counters) increase(db *tsdb.DB, now, window float64) (good, total float64) {
	if c.err != nil {
		return 0, 0
	}
	return db.CounterIncrease(c.good, now, window), db.CounterIncrease(c.total, now, window)
}

// BurnWindow is one multi-window burn-rate alert: the alert condition is
// burn(Long) >= Factor AND burn(Short) >= Factor, where burn is the
// error ratio over the window divided by the budget (1-Objective). The
// short window makes the alert resolve quickly once the burn stops.
type BurnWindow struct {
	Severity string
	Long     float64 // hours
	Short    float64 // hours
	Factor   float64 // burn-rate threshold
	For      float64 // pending duration in hours
}

// BurnWindows is the burn-rate alert policy of every SLO: the
// SRE-workbook two-tier policy scaled to simulation time (scrapes
// default to 0.25h, so the short windows hold at least two samples).
// It is read-only.
var BurnWindows = []BurnWindow{
	{Severity: "page", Long: 1, Short: 0.5, Factor: 14.4, For: 0},
	{Severity: "ticket", Long: 6, Short: 1.5, Factor: 6, For: 0.5},
}

// Budget returns the allowed error ratio, 1-Objective.
func (s *SLO) Budget() float64 { return 1 - s.Objective }

// burnVector evaluates one burn window at time now. A non-empty result
// (single sample labeled with the SLO name) means the condition holds.
func (s *SLO) burnVector(db *tsdb.DB, now float64, w BurnWindow) tsdb.Vector {
	c := s.counters()
	burnLong, okL := s.burnRate(c, db, now, w.Long)
	burnShort, okS := s.burnRate(c, db, now, w.Short)
	if !okL || !okS {
		return nil
	}
	if burnLong >= w.Factor && burnShort >= w.Factor {
		return tsdb.Vector{{Labels: tsdb.NewLabels(tsdb.L("slo", s.Name)), V: burnLong}}
	}
	return nil
}

func (s *SLO) burnRate(c *counters, db *tsdb.DB, now, window float64) (float64, bool) {
	budget := s.Budget()
	if budget <= 0 {
		return 0, false
	}
	good, total := c.increase(db, now, window)
	ratio, ok := errorRatio(good, total)
	if !ok {
		return 0, false
	}
	return ratio / budget, true
}

// errorRatio computes 1 - good/total, floored at zero. ok=false when
// there were no total events.
func errorRatio(good, total float64) (float64, bool) {
	if total <= 0 {
		return 0, false
	}
	ratio := 1 - good/total
	if ratio < 0 {
		ratio = 0
	}
	return ratio, true
}

// Status is the SLO scorecard at one instant.
type Status struct {
	Name           string
	Objective      float64
	Window         float64 // hours
	Good           float64 // events over the window
	Total          float64
	ErrorRatio     float64
	Budget         float64 // allowed error ratio
	BudgetConsumed float64 // ErrorRatio / Budget; > 1 means breached
	FastBurn       float64 // burn rate over the first burn window's Long
	SlowBurn       float64 // burn rate over the last burn window's Long
}

// Met reports whether the objective held over the window.
func (st Status) Met() bool { return st.ErrorRatio <= st.Budget }

// Status computes the scorecard at time now.
func (s *SLO) Status(db *tsdb.DB, now float64) Status {
	st := Status{Name: s.Name, Objective: s.Objective, Window: s.Window, Budget: s.Budget()}
	c := s.counters()
	st.Good, st.Total = c.increase(db, now, s.Window)
	st.ErrorRatio, _ = errorRatio(st.Good, st.Total)
	if st.Budget > 0 {
		st.BudgetConsumed = st.ErrorRatio / st.Budget
	}
	if b, ok := s.burnRate(c, db, now, BurnWindows[0].Long); ok {
		st.FastBurn = b
	}
	if b, ok := s.burnRate(c, db, now, BurnWindows[len(BurnWindows)-1].Long); ok {
		st.SlowBurn = b
	}
	return st
}

// Statuses computes every registered SLO's scorecard, sorted by name.
func (e *Engine) Statuses(now float64) []Status {
	out := make([]Status, 0, len(e.slos))
	for _, s := range e.slos {
		out = append(out, s.Status(e.db, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

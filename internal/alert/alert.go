// Package alert evaluates recording rules, alert rules, and SLO
// burn-rate rules against the metrics TSDB — the Alertmanager-shaped
// layer of the observability stack the Unit 6/7 labs have students build
// with Prometheus.
//
// Everything is driven by the injected simulation clock: the engine
// evaluates on collector scrapes (step-aligned virtual time), alert
// `for` windows are simulated hours, and the firing timeline is a plain
// ordered slice — so the same seed replays the same incidents
// byte-for-byte, and an armed engine with no rules writes nothing and
// changes nothing.
package alert

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/tsdb"
)

// State is the lifecycle of one alert instance.
type State int

const (
	// StateInactive: the rule's condition does not currently hold.
	StateInactive State = iota
	// StatePending: the condition holds but not yet for the rule's For
	// duration.
	StatePending
	// StateFiring: the condition has held continuously for at least For.
	StateFiring
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	}
	return "inactive"
}

// Rule is one alert rule: an expression that yields an instant vector
// (typically a comparison filter) and a For duration in simulated hours.
// Each distinct label set in the result is an independent alert
// instance with its own pending->firing clock.
type Rule struct {
	Name string
	Expr string
	// For is how long the condition must hold continuously, in simulated
	// hours, before the instance fires. 0 fires on first evaluation.
	For float64
	// Severity is free-form ("page", "ticket", ...) and is carried into
	// the timeline and renders.
	Severity string
}

// RecordingRule evaluates an expression on every engine step and writes
// the result back into the DB under the rule's name — precomputation for
// dashboards and for layering rules on rules.
type RecordingRule struct {
	Name string
	Expr string
}

// Instance is the live state of one (rule, label set) pair.
type Instance struct {
	Rule        string
	Severity    string
	Labels      tsdb.Labels
	State       State
	ActiveSince float64 // when the condition started holding
	FiredAt     float64 // when it entered firing (-1 while pending)
	Value       float64 // most recent expression value
}

// Transition is one state change in the deterministic alert timeline.
type Transition struct {
	At     float64
	Rule   string
	Labels tsdb.Labels
	From   State
	To     State
	Value  float64
}

func (t Transition) String() string {
	return fmt.Sprintf("t=%.2fh %s%s %s -> %s (value %.4g)",
		t.At, t.Rule, t.Labels.Signature(), t.From, t.To, t.Value)
}

// Engine evaluates rules against a DB. It is single-goroutine by design
// (driven by collector scrapes on the simulation goroutine); Step must
// not be called concurrently.
type Engine struct {
	db    *tsdb.DB
	rules []rule
	recs  []recording
	slos  []*SLO

	active   map[string]*Instance // key: rule name + label signature
	timeline []Transition
	steps    int64
	errs     []string // rule-evaluation errors, deterministic order
	onTrans  []func(Transition)
}

// rule and recording are registered rules with their expressions parsed
// once, at registration.
type rule struct {
	Rule
	query
}

type recording struct {
	RecordingRule
	query
}

// query is a parsed expression, or the error that parsing it gave. Step
// reports a parse error where it reports an evaluation error, on every
// step, so an unparseable rule reads exactly like one that fails to
// evaluate.
type query struct {
	expr tsdb.Expr
	err  error
}

func parseQuery(expr string) query {
	e, err := tsdb.ParseExpr(expr)
	return query{expr: e, err: err}
}

func (q query) eval(db *tsdb.DB, now float64) (tsdb.Value, error) {
	if q.err != nil {
		return nil, q.err
	}
	return db.Eval(q.expr, now)
}

// NewEngine returns an engine bound to db with no rules.
func NewEngine(db *tsdb.DB) *Engine {
	return &Engine{db: db, active: map[string]*Instance{}}
}

// DB returns the engine's store.
func (e *Engine) DB() *tsdb.DB { return e.db }

// AddRule registers an alert rule and parses its expression.
func (e *Engine) AddRule(r Rule) { e.rules = append(e.rules, rule{r, parseQuery(r.Expr)}) }

// AddRecordingRule registers a recording rule and parses its expression.
func (e *Engine) AddRecordingRule(r RecordingRule) {
	e.recs = append(e.recs, recording{r, parseQuery(r.Expr)})
}

// AddSLO registers an SLO; its multi-window burn-rate rules are
// evaluated on every step and its scorecard becomes available from
// Statuses. Good and Total are parsed here, into the engine's own copy.
// If either is not an instant selector, every step reports the error in
// Errors and skips the SLO's burn rules, so it never pages.
func (e *Engine) AddSLO(s SLO) {
	s.sel = parseCounters(&s)
	e.slos = append(e.slos, &s)
}

// Rules returns the registered alert rules (SLO burn rules excluded).
func (e *Engine) Rules() []Rule {
	var out []Rule
	for _, r := range e.rules {
		out = append(out, r.Rule)
	}
	return out
}

// SLOs returns copies of the registered SLOs. The copies are not
// registered: their Status and BurnRate parse Good and Total on use.
func (e *Engine) SLOs() []SLO {
	out := make([]SLO, len(e.slos))
	for i, s := range e.slos {
		out[i] = *s
		out[i].sel = nil
	}
	return out
}

// OnTransition registers a hook called synchronously for every state
// transition, in the deterministic order they are recorded — live
// narration for examples, notification fan-out, and the incident flight
// recorder. Hooks may be registered by multiple subscribers; for each
// transition they run in registration order, and each transition is
// delivered to each hook exactly once.
func (e *Engine) OnTransition(fn func(Transition)) { e.onTrans = append(e.onTrans, fn) }

// Steps returns how many evaluations have run.
func (e *Engine) Steps() int64 { return e.steps }

// Errors returns rule-evaluation errors collected so far (bad
// expressions, type mismatches, SLO selectors that are not instant
// selectors). Healthy rulesets keep this empty.
func (e *Engine) Errors() []string { return append([]string(nil), e.errs...) }

// Step evaluates everything at time now: recording rules first (so alert
// rules can reference their output from this same step), then alert
// rules, then SLO burn-rate rules.
func (e *Engine) Step(now float64) {
	e.steps++
	for _, r := range e.recs {
		v, err := r.eval(e.db, now)
		if err != nil {
			e.recordErr(r.Name, err)
			continue
		}
		switch v := v.(type) {
		case tsdb.Scalar:
			e.db.Append(r.Name, nil, now, float64(v))
		case tsdb.Vector:
			for _, s := range v {
				e.db.Append(r.Name, s.Labels, now, s.V)
			}
		default:
			e.recordErr(r.Name, fmt.Errorf("recording rule yielded a %T", v))
		}
	}
	for _, r := range e.rules {
		v, err := r.eval(e.db, now)
		if err != nil {
			e.recordErr(r.Name, err)
			continue
		}
		vec, ok := v.(tsdb.Vector)
		if !ok {
			e.recordErr(r.Name, fmt.Errorf("alert expression yielded a %s, want a vector", "scalar"))
			continue
		}
		e.applyRule(r.Name, r.Severity, r.For, vec, now)
	}
	for _, s := range e.slos {
		if s.sel.err != nil {
			e.recordErr(s.Name, s.sel.err)
			continue
		}
		for _, w := range s.burnWindows() {
			vec := s.burnVector(e.db, now, w)
			e.applyRule(s.Name+":burn:"+w.Severity, w.Severity, w.For, vec, now)
		}
	}
}

// applyRule advances the pending->firing state machine for every label
// set in the current result, and resolves instances that dropped out.
func (e *Engine) applyRule(name, severity string, forDur float64, vec tsdb.Vector, now float64) {
	current := map[string]bool{}
	for _, s := range vec {
		key := name + s.Labels.Signature()
		current[key] = true
		inst, ok := e.active[key]
		if !ok {
			inst = &Instance{Rule: name, Severity: severity,
				Labels: s.Labels, State: StatePending, ActiveSince: now, FiredAt: -1, Value: s.V}
			e.active[key] = inst
			e.transition(now, name, s.Labels, StateInactive, StatePending, s.V)
			if forDur <= 0 {
				inst.State = StateFiring
				inst.FiredAt = now
				e.transition(now, name, s.Labels, StatePending, StateFiring, s.V)
			}
			continue
		}
		inst.Value = s.V
		if inst.State == StatePending && now-inst.ActiveSince >= forDur {
			inst.State = StateFiring
			inst.FiredAt = now
			e.transition(now, name, s.Labels, StatePending, StateFiring, s.V)
		}
	}
	// Resolve instances of this rule that are no longer in the result.
	var gone []string
	for key, inst := range e.active {
		if inst.Rule == name && !current[key] {
			gone = append(gone, key)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		inst := e.active[key]
		e.transition(now, inst.Rule, inst.Labels, inst.State, StateInactive, inst.Value)
		delete(e.active, key)
	}
}

func (e *Engine) transition(at float64, rule string, labels tsdb.Labels, from, to State, v float64) {
	tr := Transition{At: at, Rule: rule, Labels: labels, From: from, To: to, Value: v}
	e.timeline = append(e.timeline, tr)
	for _, fn := range e.onTrans {
		fn(tr)
	}
}

func (e *Engine) recordErr(rule string, err error) {
	msg := fmt.Sprintf("%s: %v", rule, err)
	for _, have := range e.errs {
		if have == msg {
			return
		}
	}
	e.errs = append(e.errs, msg)
}

// Active returns the live pending/firing instances, sorted by rule then
// label signature.
func (e *Engine) Active() []Instance {
	keys := make([]string, 0, len(e.active))
	for k := range e.active {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Instance, 0, len(keys))
	for _, k := range keys {
		out = append(out, *e.active[k])
	}
	return out
}

// Timeline returns every transition so far, in evaluation order — the
// deterministic firing history the acceptance tests pin byte-for-byte.
func (e *Engine) Timeline() []Transition {
	return append([]Transition(nil), e.timeline...)
}

// RenderTimeline renders the transition history one line per event.
func RenderTimeline(ts []Transition) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

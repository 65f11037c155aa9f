// Package flightrec is the incident flight recorder: it subscribes to
// the alert engine's transition stream and, the instant an alert goes
// pending→firing, captures a self-contained incident bundle — the
// firing rule and label set, a dashboard snapshot, the TSDB range
// covering the rule's query window, the ring-buffer logs inside the
// incident window, the top-cost traces overlapping it with their
// critical paths, and whatever chaos faults and spot-reclaim notices
// were in force. The bundle is the post-hoc evidence artifact the paper
// costs out operators reconstructing by hand: instead of re-running the
// sim and eyeballing dashboards, `chameleonctl incidents show` replays
// exactly what the system knew when it paged.
//
// Determinism contract: every captured field derives from the seeded
// simulation state at capture time, so the same seed produces
// byte-identical bundles (the scenario test pins two runs). An
// armed recorder whose alerts stay quiet reads nothing and writes
// nothing — a run with the recorder armed but no firing alert is
// bit-identical to a run without the recorder.
package flightrec

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/alert"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

// Config wires the recorder to the observability stack. Engine is
// required; every other source is optional — a nil source simply leaves
// that bundle section empty.
type Config struct {
	Engine *alert.Engine
	DB     *tsdb.DB
	Logs   *logging.Logger
	Tracer *trace.Tracer
	Chaos  *chaos.Engine
	Spot   *cloud.SpotMarket

	// Dashboard, when set, is called at capture time with the firing
	// instant and its output embedded verbatim (normally a closure over
	// report.Dashboard — a hook rather than an import so report can
	// render incidents without a package cycle).
	Dashboard func(now float64) string
}

const (
	// leadHours widens the capture window before the alert went pending,
	// so the bundle shows the lead-up, not just the failure.
	leadHours = 1
	// maxTraces bounds the traces embedded per bundle.
	maxTraces = 3
	// maxIncidents bounds retained bundles; the oldest is dropped first.
	maxIncidents = 16
)

// IncidentTrace is one trace embedded in a bundle: the snapshot, its
// cost (its duration in hours, by which bundles rank traces), and its
// critical path.
type IncidentTrace struct {
	Data     trace.TraceData
	Cost     float64
	Critical []trace.PathStep
}

// Incident is one captured bundle. All fields are snapshots taken at
// capture time; nothing aliases live simulation state.
type Incident struct {
	ID       int // 1-based capture order
	Rule     string
	Severity string
	Labels   tsdb.Labels
	Value    float64 // expression value at firing

	PendingAt  float64 // when the condition started holding
	FiredAt    float64
	ResolvedAt float64 // -1 while still firing

	// WindowFrom/To is the capture window: [PendingAt - query range -
	// leadHours, FiredAt].
	WindowFrom float64
	WindowTo   float64

	Exprs     []string // the rule expression(s) driving the capture
	Dashboard string
	Series    []tsdb.Series // point-filtered to the window
	Logs      []logging.Record
	Traces    []IncidentTrace
	Faults    []chaos.ActiveFault
	Spot      []cloud.SpotNotice
}

// Recorder captures incident bundles from alert transitions. Arm it
// once after rules are registered; it is safe to arm before data flows.
type Recorder struct {
	cfg Config

	mu        sync.Mutex
	incidents []*Incident
	captures  int64
	armed     bool
}

// New returns an unarmed recorder. Call Arm to subscribe it to the
// engine.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg}
}

// Arm subscribes the recorder to the engine's transition stream. Arming
// is idempotent and read-only: until an alert actually fires, an armed
// recorder touches nothing, so a quiet run is bit-identical to an
// unarmed one.
func (r *Recorder) Arm() {
	if r == nil || r.cfg.Engine == nil {
		return
	}
	r.mu.Lock()
	if r.armed {
		r.mu.Unlock()
		return
	}
	r.armed = true
	r.mu.Unlock()
	r.cfg.Engine.OnTransition(r.onTransition)
}

// Captures returns how many bundles have been captured (including any
// dropped by the maxIncidents bound).
func (r *Recorder) Captures() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captures
}

// Incidents returns the retained bundles in capture order.
func (r *Recorder) Incidents() []Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Incident, len(r.incidents))
	for i, inc := range r.incidents {
		out[i] = *inc
	}
	return out
}

// Incident returns the bundle with the given ID.
func (r *Recorder) Incident(id int) (Incident, bool) {
	if r == nil {
		return Incident{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, inc := range r.incidents {
		if inc.ID == id {
			return *inc, true
		}
	}
	return Incident{}, false
}

// onTransition is the engine hook: capture on entry to firing, stamp
// the resolution time on exit from firing.
func (r *Recorder) onTransition(tr alert.Transition) {
	switch {
	case tr.To == alert.StateFiring:
		r.capture(tr)
	case tr.From == alert.StateFiring && tr.To == alert.StateInactive:
		r.resolve(tr)
	}
}

func (r *Recorder) resolve(tr alert.Transition) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sig := tr.Labels.Signature()
	// Latest-first: a flapping rule resolves its most recent capture.
	for i := len(r.incidents) - 1; i >= 0; i-- {
		inc := r.incidents[i]
		if inc.Rule == tr.Rule && inc.Labels.Signature() == sig && inc.ResolvedAt < 0 {
			inc.ResolvedAt = tr.At
			return
		}
	}
}

// capture assembles the bundle for one pending→firing transition.
func (r *Recorder) capture(tr alert.Transition) {
	inc := &Incident{
		Rule:       tr.Rule,
		Labels:     tr.Labels,
		Value:      tr.Value,
		PendingAt:  tr.At,
		FiredAt:    tr.At,
		ResolvedAt: -1,
	}

	// Resolve the firing rule: a plain alert rule, or an SLO burn rule
	// named <slo>:burn:<severity>. The rule's expression(s) tell us which
	// series to dump and how far back its query reaches.
	var maxRange float64
	if sloName, sev, isBurn := cutBurn(tr.Rule); isBurn {
		for _, s := range r.cfg.Engine.SLOs() {
			if s.Name != sloName {
				continue
			}
			inc.Exprs = append(inc.Exprs, s.Good, s.Total)
			for _, w := range alert.BurnWindows {
				if w.Severity == sev {
					inc.Severity = w.Severity
					if w.Long > maxRange {
						maxRange = w.Long
					}
				}
			}
			break
		}
	} else {
		for _, rule := range r.cfg.Engine.Rules() {
			if rule.Name == tr.Rule {
				inc.Exprs = append(inc.Exprs, rule.Expr)
				inc.Severity = rule.Severity
				break
			}
		}
	}

	// The firing instance carries when the condition started holding;
	// the capture window reaches back its query range plus the lead.
	for _, a := range r.cfg.Engine.Active() {
		if a.Rule == tr.Rule && a.Labels.Signature() == tr.Labels.Signature() {
			inc.PendingAt = a.ActiveSince
			break
		}
	}

	var sels []tsdb.SelectorExpr
	for _, src := range inc.Exprs {
		e, err := tsdb.ParseExpr(src)
		if err != nil {
			continue
		}
		collectSelectors(e, &sels)
	}
	for _, s := range sels {
		if s.Range > maxRange {
			maxRange = s.Range
		}
	}
	inc.WindowFrom = inc.PendingAt - maxRange - leadHours
	if inc.WindowFrom < 0 {
		inc.WindowFrom = 0
	}
	inc.WindowTo = inc.FiredAt

	if r.cfg.Dashboard != nil {
		inc.Dashboard = r.cfg.Dashboard(tr.At)
	}
	if r.cfg.DB != nil {
		inc.Series = r.selectWindow(sels, inc.WindowFrom, inc.WindowTo)
	}
	if r.cfg.Logs != nil {
		inc.Logs = r.cfg.Logs.Range(inc.WindowFrom, inc.WindowTo)
	}
	if r.cfg.Tracer != nil {
		inc.Traces = r.topTraces(inc.WindowFrom, inc.WindowTo)
	}
	if r.cfg.Chaos != nil {
		inc.Faults = r.cfg.Chaos.Active()
	}
	if r.cfg.Spot != nil {
		for _, n := range r.cfg.Spot.Notices() {
			if n.NoticedAt <= inc.WindowTo && n.ReclaimAt >= inc.WindowFrom {
				inc.Spot = append(inc.Spot, n)
			}
		}
	}

	r.mu.Lock()
	r.captures++
	inc.ID = int(r.captures)
	r.incidents = append(r.incidents, inc)
	if len(r.incidents) > maxIncidents {
		over := len(r.incidents) - maxIncidents
		r.incidents = append([]*Incident(nil), r.incidents[over:]...)
	}
	r.mu.Unlock()
}

// selectWindow dumps every series matched by the rule's selectors,
// point-filtered to the capture window. Selector order follows the
// expression; duplicate (name, matcher) selectors collapse.
func (r *Recorder) selectWindow(sels []tsdb.SelectorExpr, from, to float64) []tsdb.Series {
	var out []tsdb.Series
	seenSel := map[string]bool{}
	seenSeries := map[string]bool{}
	for _, sel := range sels {
		key := sel.String()
		if seenSel[key] {
			continue
		}
		seenSel[key] = true
		for _, s := range r.cfg.DB.Select(sel.Name, sel.Matchers) {
			id := s.ID()
			if seenSeries[id] {
				continue
			}
			var pts []tsdb.Point
			for _, p := range s.Points {
				if p.T >= from && p.T <= to {
					pts = append(pts, p)
				}
			}
			if len(pts) == 0 {
				continue
			}
			seenSeries[id] = true
			out = append(out, tsdb.Series{Name: s.Name, Labels: s.Labels, Points: pts})
		}
	}
	return out
}

// topTraces returns the maxTraces longest traces overlapping the window,
// each with its critical path. Ties keep creation order, so the ranking
// is deterministic.
func (r *Recorder) topTraces(from, to float64) []IncidentTrace {
	var cands []IncidentTrace
	for _, td := range r.cfg.Tracer.Traces() {
		start, end := td.Start(), td.End()
		if start > to || end < from {
			continue
		}
		cands = append(cands, IncidentTrace{Data: td, Cost: end - start})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost > cands[j].Cost })
	if len(cands) > maxTraces {
		cands = cands[:maxTraces]
	}
	for i := range cands {
		cands[i].Critical = trace.CriticalPath(cands[i].Data)
	}
	return cands
}

// collectSelectors walks an expression tree appending every selector in
// source order.
func collectSelectors(e tsdb.Expr, out *[]tsdb.SelectorExpr) {
	switch v := e.(type) {
	case tsdb.SelectorExpr:
		*out = append(*out, v)
	case tsdb.CallExpr:
		for _, a := range v.Args {
			collectSelectors(a, out)
		}
	case tsdb.BinExpr:
		collectSelectors(v.LHS, out)
		collectSelectors(v.RHS, out)
	case tsdb.AggExpr:
		collectSelectors(v.E, out)
	}
}

// cutBurn splits an SLO burn-rule name "<slo>:burn:<severity>".
func cutBurn(rule string) (slo, severity string, ok bool) {
	i := strings.Index(rule, ":burn:")
	if i < 0 {
		return "", "", false
	}
	return rule[:i], rule[i+len(":burn:"):], true
}

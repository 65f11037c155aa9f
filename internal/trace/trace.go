// Package trace is the span layer of the observability stack: causally
// linked spans over the simulation clock, built on top of the flat
// telemetry bus (internal/telemetry). Where the bus answers "how many
// launches happened", a trace answers "why did this lab run cost what it
// cost": every request path — cloud API call, lease lifecycle, job
// retry loop, serve batch, collective step — records a tree of spans
// whose timestamps are virtual hours, so the whole tree is
// byte-deterministic per seed.
//
// Determinism rules (enforced by tests and relied on by the exporters):
//
//   - Trace IDs derive from the tracer seed and a per-tracer creation
//     counter — never math/rand's global source, never the wall clock.
//     Traces must therefore be started from deterministic code (the
//     simulation's event loop), which every instrumented path does.
//   - Span IDs derive from (trace ID, parent span ID, span name, the
//     parent's child counter). Children of one parent are created from
//     one goroutine in every instrumented path, so span IDs are stable
//     even when sibling subtrees grow concurrently (e.g. jobs.Pool
//     workers building their own task subtrees).
//   - Timestamps come from the injected now function (normally
//     simclock.Clock.Now), never time.Now — the mlsyslint wallclock
//     check enforces this package-wide.
//
// Handles follow the telemetry idiom: every method is nil-safe, so
// instrumented components need no "is tracing enabled?" branches — a nil
// *Tracer starts nil *Spans, and methods on nil *Spans no-op.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// Tag is the usage-record tag key carrying a trace ID. The cloud meter
// stamps it on every record opened under a traced launch, which is what
// lets report.CostByTrace decompose the instance-hour bill by trace.
const Tag = "trace"

// ID identifies a trace or a span. Zero means "none" (a root span has
// Parent == 0); generated IDs are never zero.
type ID uint64

// String renders the ID as 16 hex digits, the form used in usage-record
// tags and exporter output.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanData is an immutable snapshot of one span, as returned by the
// Tracer's read APIs. End is -1 while the span is open.
type SpanData struct {
	Trace  ID
	ID     ID
	Parent ID // 0 for the root span
	Name   string
	Start  float64 // virtual hours
	End    float64 // virtual hours; -1 while open
	Attrs  []telemetry.Attr
}

// Finished reports whether the span has ended.
func (d SpanData) Finished() bool { return d.End >= 0 }

// Duration returns End-Start clamped to >= 0; open spans report 0 (an
// unfinished span has consumed no attributable time yet).
func (d SpanData) Duration() float64 {
	if d.End < 0 || d.End < d.Start {
		return 0
	}
	return d.End - d.Start
}

// endOrStart is the span's effective end for ordering and critical-path
// purposes: open spans collapse to their start instant.
func (d SpanData) endOrStart() float64 {
	if d.End < d.Start {
		return d.Start
	}
	return d.End
}

// TraceData is an immutable snapshot of one whole trace. Spans are
// sorted by (Start, ID) — a deterministic order even when the spans were
// recorded from concurrent goroutines.
type TraceData struct {
	ID    ID
	Name  string
	Spans []SpanData
}

// Root returns the root span (Parent == 0). ok is false for a trace
// snapshot with no spans, which cannot happen for tracer-built traces.
func (td TraceData) Root() (SpanData, bool) {
	for _, s := range td.Spans {
		if s.Parent == 0 {
			return s, true
		}
	}
	return SpanData{}, false
}

// Start returns the earliest span start in the trace.
func (td TraceData) Start() float64 {
	if len(td.Spans) == 0 {
		return 0
	}
	min := td.Spans[0].Start
	for _, s := range td.Spans[1:] {
		if s.Start < min {
			min = s.Start
		}
	}
	return min
}

// End returns the latest effective span end in the trace (open spans
// count as their start instant).
func (td TraceData) End() float64 {
	end := td.Start()
	for _, s := range td.Spans {
		if e := s.endOrStart(); e > end {
			end = e
		}
	}
	return end
}

// Duration returns End - Start.
func (td TraceData) Duration() float64 { return td.End() - td.Start() }

// record is the mutable store entry behind a Span handle. All fields are
// guarded by the owning tracer's mutex.
type record struct {
	data SpanData
	kids uint64 // sibling counter for child span-ID derivation
}

// traceRec is one trace's mutable store.
type traceRec struct {
	id    ID
	name  string
	spans []*record
	byID  map[ID]*record
}

// Tracer mints and stores traces. All methods are safe for concurrent
// use; the nil *Tracer is a valid "tracing disabled" tracer whose
// StartTrace returns nil spans.
type Tracer struct {
	mu     sync.Mutex
	seed   uint64
	now    func() float64 // virtual hours; nil pins time at 0
	traces []*traceRec
	byID   map[ID]*traceRec
}

// New returns a tracer whose IDs derive from seed and whose timestamps
// read now (normally simclock.Clock.Now). A nil now pins every default
// timestamp at 0; the *At variants still accept explicit times.
func New(seed uint64, now func() float64) *Tracer {
	return &Tracer{seed: seed, now: now, byID: map[ID]*traceRec{}}
}

func (t *Tracer) nowTime() float64 {
	if t == nil || t.now == nil {
		return 0
	}
	return t.now()
}

// mix64 is the SplitMix64 finalizer, the same bit mixer stats.RNG seeds
// with — high-quality avalanche with no shared state.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func rotl64(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func nonzero(x uint64) ID {
	if x == 0 {
		return 1
	}
	return ID(x)
}

// Span is a handle on one live span. Handles are cheap, nil-safe, and
// concurrency-safe (all state lives behind the tracer's mutex); the
// usual ownership rule is that whoever starts a span finishes it, or
// hands the handle to the component that will (the mlsyslint spanleak
// check enforces exactly this).
type Span struct {
	t   *Tracer
	tr  *traceRec
	rec *record
}

// StartTrace begins a new trace with a root span named name, starting
// now. Returns nil on a nil tracer.
func (t *Tracer) StartTrace(name string, attrs ...telemetry.Attr) *Span {
	return t.StartTraceAt(name, t.nowTime(), attrs...)
}

// StartTraceAt is StartTrace with an explicit start time, for spans that
// describe an interval that began before the instrumentation ran (e.g.
// an evacuation trace backdated to the crash instant).
func (t *Tracer) StartTraceAt(name string, at float64, attrs ...telemetry.Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seq := uint64(len(t.traces)) + 1
	tid := nonzero(mix64(t.seed ^ mix64(seq*0x9e3779b97f4a7c15)))
	for _, exists := t.byID[tid]; exists; _, exists = t.byID[tid] {
		tid = nonzero(mix64(uint64(tid)))
	}
	tr := &traceRec{id: tid, name: name, byID: map[ID]*record{}}
	t.traces = append(t.traces, tr)
	t.byID[tid] = tr
	sp := t.newSpanLocked(tr, 0, name, at, attrs)
	t.mu.Unlock()
	return sp
}

// newSpanLocked mints a span record under t.mu and returns its handle.
func (t *Tracer) newSpanLocked(tr *traceRec, parent ID, name string, at float64, attrs []telemetry.Attr) *Span {
	var sibling uint64
	if parent == 0 {
		sibling = 0
	} else {
		p := tr.byID[parent]
		sibling = p.kids
		p.kids++
	}
	raw := uint64(tr.id) ^ rotl64(uint64(parent), 17) ^ fnv64(name) ^ (sibling+1)*0xd1342543de82ef95
	sid := nonzero(mix64(raw))
	for _, exists := tr.byID[sid]; exists; _, exists = tr.byID[sid] {
		sid = nonzero(mix64(uint64(sid)))
	}
	rec := &record{data: SpanData{
		Trace:  tr.id,
		ID:     sid,
		Parent: parent,
		Name:   name,
		Start:  at,
		End:    -1,
		Attrs:  append([]telemetry.Attr(nil), attrs...),
	}}
	tr.spans = append(tr.spans, rec)
	tr.byID[sid] = rec
	return &Span{t: t, tr: tr, rec: rec}
}

// StartChild begins a child span starting now. Nil-safe: a nil receiver
// returns nil.
func (s *Span) StartChild(name string, attrs ...telemetry.Attr) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, s.t.nowTime(), attrs...)
}

// StartChildAt is StartChild with an explicit start time, used to
// backdate spans (queue waits measured from submission) and to build
// span trees with modeled virtual durations (collective phases).
func (s *Span) StartChildAt(name string, at float64, attrs ...telemetry.Attr) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	sp := s.t.newSpanLocked(s.tr, s.rec.data.ID, name, at, attrs)
	s.t.mu.Unlock()
	return sp
}

// Annotate appends attributes to the span. Annotating a finished span is
// allowed (outcome attributes often arrive with the result).
func (s *Span) Annotate(attrs ...telemetry.Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.rec.data.Attrs = append(s.rec.data.Attrs, attrs...)
	s.t.mu.Unlock()
}

// Finish ends the span now. Finishing twice is a no-op (the first end
// time wins), so cancel paths can finish defensively.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishAt(s.t.nowTime())
}

// FinishAt ends the span at an explicit time. No-op if already finished.
func (s *Span) FinishAt(end float64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.rec.data.End < 0 {
		s.rec.data.End = end
	}
	s.t.mu.Unlock()
}

// TraceID returns the span's trace ID (0 on nil).
func (s *Span) TraceID() ID {
	if s == nil {
		return 0
	}
	return s.tr.id
}

// SpanID returns the span's own ID (0 on nil).
func (s *Span) SpanID() ID {
	if s == nil {
		return 0
	}
	return s.rec.data.ID
}

// StartTime returns the span's start time (0 on nil). Consumers use it
// to backdate queue-wait children to the moment the parent was started.
func (s *Span) StartTime() float64 {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.rec.data.Start
}

// snapshotLocked builds the sorted snapshot of one trace.
func (tr *traceRec) snapshotLocked() TraceData {
	td := TraceData{ID: tr.id, Name: tr.name, Spans: make([]SpanData, len(tr.spans))}
	for i, r := range tr.spans {
		d := r.data
		d.Attrs = append([]telemetry.Attr(nil), r.data.Attrs...)
		td.Spans[i] = d
	}
	sort.Slice(td.Spans, func(i, j int) bool {
		if td.Spans[i].Start != td.Spans[j].Start {
			return td.Spans[i].Start < td.Spans[j].Start
		}
		return td.Spans[i].ID < td.Spans[j].ID
	})
	return td
}

// Traces returns snapshots of every trace in creation order.
func (t *Tracer) Traces() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, len(t.traces))
	for i, tr := range t.traces {
		out[i] = tr.snapshotLocked()
	}
	return out
}

// TraceByID returns one trace's snapshot.
func (t *Tracer) TraceByID(id ID) (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	if !ok {
		return TraceData{}, false
	}
	return tr.snapshotLocked(), true
}

// Find returns the first trace (in creation order) matching q, trying
// progressively looser matches: exact name, then name or hex-ID prefix,
// then name substring (so `trace show web` finds "api.launch web") —
// the lookup behind `chameleonctl trace show <q>`.
func (t *Tracer) Find(q string) (TraceData, bool) {
	if t == nil || q == "" {
		return TraceData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for pass := 0; pass < 3; pass++ {
		for _, tr := range t.traces {
			var hit bool
			switch pass {
			case 0:
				hit = tr.name == q
			case 1:
				hit = hasPrefix(tr.name, q) || hasPrefix(tr.id.String(), q)
			case 2:
				hit = strings.Contains(tr.name, q)
			}
			if hit {
				return tr.snapshotLocked(), true
			}
		}
	}
	return TraceData{}, false
}

// Longest returns the trace with the largest wall duration, breaking
// ties by creation order — the default subject of critical-path queries.
func (t *Tracer) Longest() (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	all := t.Traces()
	if len(all) == 0 {
		return TraceData{}, false
	}
	best := 0
	for i := 1; i < len(all); i++ {
		if all[i].Duration() > all[best].Duration() {
			best = i
		}
	}
	return all[best], true
}

// Len returns how many traces the tracer holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

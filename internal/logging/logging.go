// Package logging is the third observability pillar next to the
// telemetry bus (point-in-time metrics) and distributed tracing
// (per-request causality): leveled, structured, queryable log records on
// the simulation clock. Where a counter says "one more preemption
// happened" and a span says "this request took 0.05h", a log record
// says *what* happened, to *which* resource, *why* — the narrative an
// operator greps when an alert fires.
//
// Design notes (the telemetry idiom, applied to logs):
//
//   - Handles are cheap and nil-safe: Component on a nil *Logger returns
//     nil, and every method on a nil *Component is a no-op, so
//     instrumented code needs no "is logging enabled?" branches.
//   - Timestamps are simulated hours read from the injected now function
//     (normally simclock.Clock.Now), never the wall clock — the
//     mlsyslint wallclock check enforces this package-wide.
//   - Each component owns a bounded ring buffer; once full, the oldest
//     record is overwritten (eviction is strictly oldest-first, and the
//     per-component Dropped counter says how many are gone). Records
//     carry a logger-wide sequence number, so merged views interleave
//     components in exact emission order.
//   - Attributes are lazy: an Attr stores the raw string/int/float and
//     formats only when rendered, so the emit hot path stays
//     allocation-bounded (<= 1 alloc/op steady-state, gated by a
//     testing.AllocsPerRun test).
//   - Trace correlation is first-class: the *T method variants stamp the
//     span's trace and span IDs into the record, so an incident window
//     of logs joins against the trace store without parsing.
//   - Every record bumps a labeled bus counter
//     log.records{component,level} (registered once per component, so
//     the bump is a lock-free atomic add). The TSDB scrapes those
//     through the ordinary zero-alloc plan machinery, which is what
//     makes "log volume by component" a dashboard panel and an
//     alertable signal.
package logging

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Level is the severity of a record.
type Level int32

const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String renders the level in the fixed-width uppercase form used by
// Render ("INFO ", "WARN ", "ERROR"). Widths match so rendered logs align.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "INFO "
	case LevelWarn:
		return "WARN "
	case LevelError:
		return "ERROR"
	}
	return fmt.Sprintf("L(%d)", int32(l))
}

// labelValue is the lowercase form used as the `level` label on the
// log.records counter.
func (l Level) labelValue() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name ("INFO", "warn ", "error") to its Level.
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "info":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return LevelInfo, false
}

// attrKind discriminates the lazy Attr payload.
type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindFloat
)

// Attr is one key/value pair. The value is stored raw and formatted only
// when read, so building attrs on the emit path allocates nothing.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, kind: kindStr, s: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, kind: kindInt, i: int64(value)} }

// Float builds a float attribute rendered with %.4f, trailing zeros
// trimmed — the same compact form telemetry.Float uses, so log lines and
// event attrs agree byte-for-byte on the same value.
func Float(key string, value float64) Attr { return Attr{Key: key, kind: kindFloat, f: value} }

// Value formats the attribute value.
func (a Attr) Value() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(a.i, 10)
	case kindFloat:
		s := strconv.FormatFloat(a.f, 'f', 4, 64)
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
		if s == "" || s == "-" {
			s = "0"
		}
		return s
	default:
		return a.s
	}
}

// MaxAttrs is how many attributes one record holds inline. Extra attrs
// are dropped (oldest kept) and counted in the record's Truncated flag —
// a fixed-size slot is what keeps ring writes allocation-free.
const MaxAttrs = 8

// Record is one log record. Records are plain values: the ring stores
// them inline and snapshots copy them out, so readers never alias the
// ring.
type Record struct {
	Seq       uint64  // logger-wide emission order
	T         float64 // simulated hours
	Level     Level
	Component string
	Msg       string
	Trace     trace.ID // 0 when the record was not emitted under a span
	Span      trace.ID
	Truncated uint8 // attrs dropped because the record was over MaxAttrs

	nattrs uint8
	attrs  [MaxAttrs]Attr
}

// Attr returns the value of the named attribute ("" if absent).
//
//lint:ignore deadcode tests of live code read record attributes with it; no live API exposes them one by one
func (r *Record) Attr(key string) string {
	for i := uint8(0); i < r.nattrs; i++ {
		if r.attrs[i].Key == key {
			return r.attrs[i].Value()
		}
	}
	return ""
}

// String renders the record as one line:
//
//	t=2.5000h WARN  cloud        spot preemption notice  pool=gpu_a100_pcie id=i-3  trace=4579b960bb007f46
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.4fh %s %-12s %s", r.T, r.Level, r.Component, r.Msg)
	for i := uint8(0); i < r.nattrs; i++ {
		b.WriteByte(' ')
		b.WriteString(r.attrs[i].Key)
		b.WriteByte('=')
		b.WriteString(r.attrs[i].Value())
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, " (+%d attrs dropped)", r.Truncated)
	}
	if r.Trace != 0 {
		b.WriteString(" trace=")
		b.WriteString(r.Trace.String())
	}
	return b.String()
}

// Render renders records one per line — the queryable text form used by
// `chameleonctl logs` and the incident bundle.
func Render(recs []Record) string {
	var b strings.Builder
	for i := range recs {
		b.WriteString(recs[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Filter keeps records matching every given criterion: component (exact
// name, "" = any), minimum level, trace-ID hex prefix ("" = any), and
// minimum timestamp (since < 0 = any).
func Filter(recs []Record, component string, min Level, tracePrefix string, since float64) []Record {
	var out []Record
	for _, r := range recs {
		if component != "" && r.Component != component {
			continue
		}
		if r.Level < min {
			continue
		}
		if tracePrefix != "" && !strings.HasPrefix(r.Trace.String(), tracePrefix) {
			continue
		}
		if since >= 0 && r.T < since {
			continue
		}
		out = append(out, r)
	}
	return out
}

// DefaultRingSize is the per-component ring capacity.
const DefaultRingSize = 512

// Logger owns the component registry and the global record sequence.
// All methods are safe for concurrent use; a nil *Logger is a valid
// "logging disabled" logger.
type Logger struct {
	now func() float64
	seq atomic.Uint64

	mu    sync.Mutex
	bus   *telemetry.Bus
	comps map[string]*Component
	order []string // sorted component names
}

// New returns a logger whose timestamps read now (normally
// simclock.Clock.Now; nil pins time at 0). The seed is unused: no
// record depends on it.
func New(seed uint64, now func() float64) *Logger {
	return &Logger{now: now, comps: map[string]*Component{}}
}

// SetTelemetry attaches a bus: every component registered *after* this
// call gets log.records{component,level} counters. Call before handing
// out components.
func (l *Logger) SetTelemetry(b *telemetry.Bus) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bus = b
}

// Component returns (registering on first use) the named component
// handle. Returns nil on a nil logger.
func (l *Logger) Component(name string) *Component {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.comps[name]
	if !ok {
		c = &Component{l: l, name: name, ring: make([]Record, DefaultRingSize)}
		if l.bus != nil {
			for lv := LevelInfo; lv <= LevelError; lv++ {
				c.counters[lv] = l.bus.Counter(telemetry.Labeled("log.records",
					telemetry.String("component", name),
					telemetry.String("level", lv.labelValue())))
			}
		}
		l.comps[name] = c
		i := sort.SearchStrings(l.order, name)
		l.order = append(l.order, "")
		copy(l.order[i+1:], l.order[i:])
		l.order[i] = name
	}
	return c
}

// components returns the registered components in name order.
func (l *Logger) components() []*Component {
	l.mu.Lock()
	defer l.mu.Unlock()
	comps := make([]*Component, 0, len(l.order))
	for _, name := range l.order {
		comps = append(comps, l.comps[name])
	}
	return comps
}

// Records returns the retained records of every component merged into
// emission order (by sequence number). max > 0 keeps only the most
// recent max records.
func (l *Logger) Records(max int) []Record {
	if l == nil {
		return nil
	}
	comps := l.components()
	var out []Record
	for _, c := range comps {
		out = append(out, c.Records()...)
	}
	sortBySeq(out)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Range returns every retained record with from <= T <= to, in emission
// order — the incident-window query the flight recorder captures. Each
// ring is filtered under its own lock, so only the window's records are
// copied and merged.
func (l *Logger) Range(from, to float64) []Record {
	if l == nil {
		return nil
	}
	comps := l.components()
	var out []Record
	for _, c := range comps {
		out = c.appendRange(out, from, to)
	}
	sortBySeq(out)
	return out
}

// sortBySeq puts merged records in emission order. Sequence numbers are
// unique, so the order does not depend on the sort's stability.
func sortBySeq(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
}

// Dropped sums ring overwrites across components.
func (l *Logger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	comps := l.components()
	var n uint64
	for _, c := range comps {
		n += c.Dropped()
	}
	return n
}

// Component is a named log stream with its own bounded ring. Handles are
// cheap and nil-safe.
type Component struct {
	l    *Logger
	name string

	counters [LevelError + 1]*telemetry.Counter // per level; nil without a bus

	mu      sync.Mutex
	ring    []Record
	head    int // next write position
	filled  int
	dropped uint64
}

// Name returns the component name ("" on nil).
func (c *Component) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Info emits an info record.
func (c *Component) Info(msg string, attrs ...Attr) { c.log(LevelInfo, nil, msg, attrs) }

// Warn emits a warning record.
func (c *Component) Warn(msg string, attrs ...Attr) { c.log(LevelWarn, nil, msg, attrs) }

// Error emits an error record.
func (c *Component) Error(msg string, attrs ...Attr) { c.log(LevelError, nil, msg, attrs) }

// InfoT is Info correlated to a span.
func (c *Component) InfoT(sp *trace.Span, msg string, attrs ...Attr) {
	c.log(LevelInfo, sp, msg, attrs)
}

// WarnT is Warn correlated to a span.
func (c *Component) WarnT(sp *trace.Span, msg string, attrs ...Attr) {
	c.log(LevelWarn, sp, msg, attrs)
}

// ErrorT is Error correlated to a span.
func (c *Component) ErrorT(sp *trace.Span, msg string, attrs ...Attr) {
	c.log(LevelError, sp, msg, attrs)
}

// log is the single emit path: ring write under the component lock,
// counter bump. It never allocates on the steady-state path — the
// record is written into a preallocated ring slot, attrs are copied into
// the slot's inline array, and the counter handle was registered at
// component creation.
func (c *Component) log(lv Level, sp *trace.Span, msg string, attrs []Attr) {
	if c == nil {
		return
	}
	seq := c.l.seq.Add(1)
	var t float64
	if c.l.now != nil {
		t = c.l.now()
	}
	c.mu.Lock()
	r := &c.ring[c.head]
	r.Seq = seq
	r.T = t
	r.Level = lv
	r.Component = c.name
	r.Msg = msg
	r.Trace = sp.TraceID()
	r.Span = sp.SpanID()
	n := len(attrs)
	if n > MaxAttrs {
		r.Truncated = uint8(n - MaxAttrs)
		n = MaxAttrs
	} else {
		r.Truncated = 0
	}
	copy(r.attrs[:n], attrs[:n])
	r.nattrs = uint8(n)
	c.head = (c.head + 1) % len(c.ring)
	if c.filled < len(c.ring) {
		c.filled++
	} else {
		c.dropped++
	}
	c.mu.Unlock()
	c.counters[lv].Inc()
}

// Records returns the retained records, oldest first.
func (c *Component) Records() []Record {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, c.filled)
	start := c.head - c.filled
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < c.filled; i++ {
		out = append(out, c.ring[(start+i)%len(c.ring)])
	}
	return out
}

// appendRange appends the retained records with from <= T <= to to dst,
// oldest first.
func (c *Component) appendRange(dst []Record, from, to float64) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.head - c.filled
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < c.filled; i++ {
		if r := &c.ring[(start+i)%len(c.ring)]; r.T >= from && r.T <= to {
			dst = append(dst, *r)
		}
	}
	return dst
}

// Dropped returns how many records this component's ring has overwritten.
func (c *Component) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

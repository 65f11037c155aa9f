// Package telemetry is the platform-wide metric registry: counters,
// gauges and fixed-bucket histograms, plus the key/value attributes that
// label them and annotate trace spans.
//
// The paper's quantitative claims (186,692 instance hours, ≈$250 per
// student) are only as good as the platform's ability to observe itself;
// every subsystem on a hot path — instance lifecycle, reservations,
// scheduling, batching, collectives — counts into one Bus. The record of
// what happened, transition by transition, is the structured log
// (internal/logging); the record of why a run cost what it cost is the
// span tree (internal/trace).
//
// Design notes:
//
//   - Handles are cheap and nil-safe: methods on a nil *Bus return nil
//     handles, and methods on nil handles are no-ops, so instrumented
//     components need no "is telemetry enabled?" branches.
//   - Counters and gauges are lock-free (atomics); histograms take a
//     short per-histogram lock. One read-write lock guards the
//     instrument registry; hot paths resolve their handles once.
//   - Snapshot and Instruments list instruments sorted by name, so map
//     order never leaks into rendered output.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Attr is one key/value pair: a span attribute or a Labeled name label.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", value)} }

// Float builds a float attribute with compact formatting.
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: formatFloat(value)}
}

func formatFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that can move both ways.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (atomic compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= bounds[i]; one implicit overflow bucket counts the
// rest. Bounds are sorted ascending at creation.
type Histogram struct {
	name   string
	bounds []float64

	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is overflow
	sum    float64
	total  int64
}

// Bounds returns the sorted bucket upper bounds (excluding the implicit
// +Inf overflow bucket). The slice is shared and must not be mutated.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// SnapshotDelta reads the histogram state under one lock acquisition.
// If the observation total still equals lastTotal, nothing has been
// observed since the caller's previous read and it returns
// changed=false without copying any counts — the caller replays its
// cached values. Otherwise the per-bucket counts (len(bounds)+1, last
// is overflow) are appended to dst and the consistent (counts, sum,
// total) triple is returned. Pass lastTotal = -1 to force a read.
func (h *Histogram) SnapshotDelta(lastTotal int64, dst []int64) (counts []int64, sum float64, total int64, changed bool) {
	if h == nil {
		return nil, 0, 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == lastTotal {
		return nil, h.sum, h.total, false
	}
	return append(dst, h.counts...), h.sum, h.total, true
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Bucket is one histogram bucket in a snapshot. Count is the number of
// observations in (prev bound, Bound]; the overflow bucket has
// Bound = +Inf.
type Bucket struct {
	Bound float64
	Count int64
}

// Metric is a point-in-time snapshot of one instrument.
type Metric struct {
	Name string
	Kind string // "counter", "gauge", or "histogram"

	Value float64 // counter total or gauge reading

	// Histogram-only fields.
	Count   int64
	Sum     float64
	Buckets []Bucket
}

// Mean returns Sum/Count for histograms (0 when empty).
func (m Metric) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Quantile estimates the q-quantile (0..1) from histogram buckets by
// linear interpolation within the containing bucket. The overflow bucket
// reports its lower bound.
func (m Metric) Quantile(q float64) float64 {
	if m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(m.Count)
	var cum int64
	lower := 0.0
	for _, b := range m.Buckets {
		cum += b.Count
		if float64(cum) >= rank {
			if math.IsInf(b.Bound, 1) {
				return lower
			}
			if b.Count == 0 {
				return b.Bound
			}
			frac := (rank - float64(cum-b.Count)) / float64(b.Count)
			return lower + frac*(b.Bound-lower)
		}
		if !math.IsInf(b.Bound, 1) {
			lower = b.Bound
		}
	}
	return lower
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is a general-purpose seconds scale: 1ms .. ~8s.
func LatencyBuckets() []float64 { return ExpBuckets(0.001, 2, 14) }

// Bus is one telemetry domain: a metric registry. All methods are safe
// for concurrent use; the zero value is not usable, call New.
type Bus struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gen      atomic.Uint64 // bumped on every instrument registration
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Gen returns the registry generation: it increases every time a new
// instrument is registered, so scrapers can cache instrument listings
// and invalidate only when something was added.
func (b *Bus) Gen() uint64 {
	if b == nil {
		return 0
	}
	return b.gen.Load()
}

// Counter returns (registering on first use) the named counter.
func (b *Bus) Counter(name string) *Counter {
	if b == nil {
		return nil
	}
	b.mu.RLock()
	c := b.counters[name]
	b.mu.RUnlock()
	if c != nil {
		return c
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c = b.counters[name]; c == nil {
		c = &Counter{name: name}
		b.counters[name] = c
		b.gen.Add(1)
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (b *Bus) Gauge(name string) *Gauge {
	if b == nil {
		return nil
	}
	b.mu.RLock()
	g := b.gauges[name]
	b.mu.RUnlock()
	if g != nil {
		return g
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if g = b.gauges[name]; g == nil {
		g = &Gauge{name: name}
		b.gauges[name] = g
		b.gen.Add(1)
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket bounds. Bounds are only applied on first registration;
// later calls with different bounds get the existing instrument.
func (b *Bus) Histogram(name string, bounds []float64) *Histogram {
	if b == nil {
		return nil
	}
	b.mu.RLock()
	h := b.hists[name]
	b.mu.RUnlock()
	if h != nil {
		return h
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if h = b.hists[name]; h == nil {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{name: name, bounds: bs, counts: make([]int64, len(bs)+1)}
		b.hists[name] = h
		b.gen.Add(1)
	}
	return h
}

// Snapshot returns every registered instrument's current value, sorted
// by name (counters, then gauges, then histograms share one namespace —
// names should not collide across kinds). The result is freshly
// allocated and owned by the caller; hot paths that scrape repeatedly
// should use SnapshotAppend with a reused buffer.
func (b *Bus) Snapshot() []Metric { return b.SnapshotAppend(nil) }

// SnapshotAppend fills buf (reusing its backing array and any nested
// bucket slices) with every registered instrument's current value and
// returns it, sorted by name with kind as the tie-break. One output
// slice is sized and filled directly — no per-kind intermediates.
func (b *Bus) SnapshotAppend(buf []Metric) []Metric {
	if b == nil {
		return buf[:0]
	}
	out := buf[:0]
	b.mu.RLock()
	if n := len(b.counters) + len(b.gauges) + len(b.hists); cap(out) < n {
		out = make([]Metric, 0, n)
	}
	for _, c := range b.counters {
		out, _ = extendMetric(out, c.name, "counter")
		out[len(out)-1].Value = float64(c.Value())
	}
	for _, g := range b.gauges {
		out, _ = extendMetric(out, g.name, "gauge")
		out[len(out)-1].Value = g.Value()
	}
	for _, h := range b.hists {
		var m *Metric
		out, m = extendMetric(out, h.name, "histogram")
		h.mu.Lock()
		m.Count, m.Sum = h.total, h.sum
		for i, c := range h.counts {
			bound := math.Inf(1)
			if i < len(h.bounds) {
				bound = h.bounds[i]
			}
			m.Buckets = append(m.Buckets, Bucket{Bound: bound, Count: c})
		}
		h.mu.Unlock()
	}
	b.mu.RUnlock()
	// Map order is random: sort by name (kind as tie-break, names should
	// not collide across kinds anyway). slices.SortFunc is
	// allocation-free, unlike sort.Slice's interface-and-closure
	// machinery.
	slices.SortFunc(out, compareMetrics)
	return out
}

// compareMetrics orders snapshot entries by name, kind as tie-break.
func compareMetrics(a, b Metric) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Kind, b.Kind)
}

// extendMetric grows out by one element, reusing the dormant element's
// bucket slice capacity when the backing array already holds one, and
// resets it to a fresh scalar metric.
func extendMetric(out []Metric, name, kind string) ([]Metric, *Metric) {
	if len(out) < cap(out) {
		out = out[:len(out)+1]
	} else {
		out = append(out, Metric{})
	}
	m := &out[len(out)-1]
	*m = Metric{Name: name, Kind: kind, Buckets: m.Buckets[:0]}
	return out, m
}

// Instrument is one registered bus instrument: exactly one of Counter,
// Gauge, or Hist is non-nil, matching Kind.
type Instrument struct {
	Name    string
	Kind    string // "counter", "gauge", or "histogram"
	Counter *Counter
	Gauge   *Gauge
	Hist    *Histogram
}

// Instruments fills buf (reusing its backing array) with every
// registered instrument handle, sorted by name with kind as the
// tie-break — the same deterministic merge order as Snapshot. Callers
// pair it with Gen to cache the listing between registrations.
func (b *Bus) Instruments(buf []Instrument) []Instrument {
	if b == nil {
		return buf[:0]
	}
	out := buf[:0]
	b.mu.RLock()
	for _, c := range b.counters {
		out = append(out, Instrument{Name: c.name, Kind: "counter", Counter: c})
	}
	for _, g := range b.gauges {
		out = append(out, Instrument{Name: g.name, Kind: "gauge", Gauge: g})
	}
	for _, h := range b.hists {
		out = append(out, Instrument{Name: h.name, Kind: "histogram", Hist: h})
	}
	b.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Find returns the named metric from a snapshot (ok=false if absent).
func Find(snap []Metric, name string) (Metric, bool) {
	for _, m := range snap {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

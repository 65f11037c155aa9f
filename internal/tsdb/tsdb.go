// Package tsdb is the platform's metrics time-series database: an
// in-memory store of labeled, append-only series fed by a telemetry-bus
// collector, with a small deterministic PromQL-lite query engine on top
// (parse.go, eval.go).
//
// This is the third observability pillar next to the telemetry bus
// (point-in-time snapshots) and distributed tracing (per-request
// causality): it answers questions over time — "what was the p95 batch
// latency over the last simulated hour", "how fast is the error budget
// burning" — which is exactly what the course's Unit 6/7 monitoring labs
// have students stand up with Prometheus, and what the paper's
// instance-hour cost analysis is made of.
//
// Determinism invariants (enforced by tests and mlsyslint):
//
//   - Timestamps are simulated hours (float64), never wall clock. The
//     collector scrapes on sim-clock-aligned steps, so the same seed
//     produces byte-identical series.
//   - Label sets are canonical (sorted, deduplicated); series identity
//     is name + label signature, and every query result is sorted by
//     that signature.
//   - Appends must be in time order per series; an out-of-order sample
//     is dropped and counted, never silently reordered.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Point is one observation: a value at a simulated-hours timestamp.
type Point struct {
	T float64
	V float64
}

// Series is one named, labeled time series. Points are ascending in T.
type Series struct {
	Name   string
	Labels Labels
	Points []Point
}

// ID renders the canonical series identity, e.g.
// `cloud.launches{flavor="m1.large"}`.
func (s *Series) ID() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	return s.Name + s.Labels.Signature()
}

// Options configures retention and downsampling. Zero values disable the
// corresponding behavior.
type Options struct {
	// Retention drops points older than now-Retention hours at Compact.
	Retention float64
	// RawWindow is how long full-resolution points are kept. Points
	// older than now-RawWindow are downsampled to one point per
	// DownsampleStep (the last sample in each step, keeping its original
	// timestamp). Both must be set for downsampling to happen.
	RawWindow      float64
	DownsampleStep float64
	// Lookback bounds how far back an instant-vector selector will reach
	// for the latest sample (default 1.0 simulated hour).
	Lookback float64
}

// DefaultLookback is the instant-selector staleness bound in hours.
const DefaultLookback = 1.0

// DB is the store. All methods are safe for concurrent use; the zero
// value is not usable, call New.
type DB struct {
	mu      sync.RWMutex
	series  map[string]*Series // key: name + label signature
	order   []string           // insertion-independent: kept sorted
	opts    Options
	dropped int64  // out-of-order appends rejected
	gen     uint64 // bumped when Compact deletes series; invalidates SeriesRefs
}

// New returns an empty DB with the given options.
func New(opts Options) *DB {
	if opts.Lookback <= 0 {
		opts.Lookback = DefaultLookback
	}
	return &DB{series: map[string]*Series{}, opts: opts}
}

// Append records one sample. Labels must be canonical (built by
// NewLabels / LabelsFromAttrs). Appends whose timestamp is older than
// the series tail are dropped and counted in Dropped; a sample at
// exactly the tail timestamp replaces it (a re-scrape at the same
// aligned step is an update, not history).
func (db *DB) Append(name string, labels Labels, t, v float64) {
	if db == nil {
		return
	}
	key := name + labels.Signature()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.appendLocked(db.getOrCreateLocked(key, name, labels), t, v)
}

func (db *DB) getOrCreateLocked(key, name string, labels Labels) *Series {
	s, ok := db.series[key]
	if !ok {
		s = &Series{Name: name, Labels: labels}
		db.series[key] = s
		i := sort.SearchStrings(db.order, key)
		db.order = append(db.order, "")
		copy(db.order[i+1:], db.order[i:])
		db.order[i] = key
	}
	return s
}

func (db *DB) appendLocked(s *Series, t, v float64) {
	if n := len(s.Points); n > 0 {
		last := s.Points[n-1].T
		if t < last {
			db.dropped++
			return
		}
		if t == last {
			s.Points[n-1].V = v
			return
		}
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// SeriesRef is a cached append handle for one series: the key string is
// built once (from an interned signature when obtained via RefSet) and
// the series pointer is resolved on first append, so the steady-state
// AppendRef does no map lookup, no sorting, and no string building.
// A ref is bound to the DB that issued it.
type SeriesRef struct {
	name   string
	labels Labels
	key    string
	s      *Series
	gen    uint64
}

// Ref returns an append handle for name + labels. Labels must be
// canonical; the signature is computed once here.
func (db *DB) Ref(name string, labels Labels) *SeriesRef {
	return &SeriesRef{name: name, labels: labels, key: name + labels.Signature()}
}

// RefSet is Ref for an interned label set: the precomputed signature is
// used directly, so no per-ref signature work happens at all.
func (db *DB) RefSet(name string, set *LabelSet) *SeriesRef {
	return &SeriesRef{name: name, labels: set.Labels(), key: name + set.Signature()}
}

// AppendRef records one sample through a cached handle, with the same
// ordering semantics as Append. The cached series pointer is revalidated
// whenever Compact has deleted any series since it was resolved (the DB
// generation counter), so a ref survives retention deleting and later
// recreating its series.
func (db *DB) AppendRef(ref *SeriesRef, t, v float64) {
	if db == nil || ref == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s := ref.s
	if s == nil || ref.gen != db.gen {
		s = db.getOrCreateLocked(ref.key, ref.name, ref.labels)
		ref.s, ref.gen = s, db.gen
	}
	db.appendLocked(s, t, v)
}

// Dropped returns how many out-of-order appends were rejected.
func (db *DB) Dropped() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dropped
}

// SeriesCount returns the number of live series.
func (db *DB) SeriesCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series)
}

// Names returns the distinct series names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, key := range db.order {
		s := db.series[key]
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Select returns copies of every series with the given name whose labels
// satisfy all matchers, sorted by label signature. The returned series
// share no memory with the store.
func (db *DB) Select(name string, ms []Matcher) []Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Series
	for _, key := range db.order {
		if !keyHasName(key, name) {
			continue
		}
		s := db.series[key]
		if s.Name != name || !matchAll(ms, s.Labels) {
			continue
		}
		out = append(out, Series{
			Name:   s.Name,
			Labels: append(Labels(nil), s.Labels...),
			Points: append([]Point(nil), s.Points...),
		})
	}
	return out
}

// keyHasName reports whether a series key can belong to a series named
// name. A key is the name followed by the label signature, which always
// starts with '{', so this string test lets a scan skip the map lookup
// for the other series; callers still compare Series.Name.
func keyHasName(key, name string) bool {
	return len(key) > len(name) && key[len(name)] == '{' && key[:len(name)] == name
}

// Compact applies retention and downsampling relative to now. Retention
// runs first (drop everything older than now-Retention), then points
// older than now-RawWindow are reduced to the last sample per
// DownsampleStep — step-aligned, so the same now always produces the
// same surviving points. Series left empty are deleted.
func (db *DB) Compact(now float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var dead []string
	for key, s := range db.series {
		pts := s.Points
		if db.opts.Retention > 0 {
			cut := now - db.opts.Retention
			i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= cut })
			pts = pts[i:]
		}
		if db.opts.RawWindow > 0 && db.opts.DownsampleStep > 0 {
			pts = downsample(pts, now-db.opts.RawWindow, db.opts.DownsampleStep)
		}
		if len(pts) == 0 {
			dead = append(dead, key)
			continue
		}
		// No copy: retention advances the slice head in place and
		// downsample returns the input when nothing merges, so the
		// steady-state Compact (nothing to drop) allocates nothing.
		// Freed capacity is reclaimed when append growth reallocates.
		s.Points = pts
	}
	for _, key := range dead {
		delete(db.series, key)
		i := sort.SearchStrings(db.order, key)
		db.order = append(db.order[:i], db.order[i+1:]...)
	}
	if len(dead) > 0 {
		db.gen++ // cached SeriesRef pointers must re-resolve
	}
}

// downsample keeps full resolution for points with T >= rawCut and
// reduces older points to the last one per step bucket (bucket k covers
// [k*step, (k+1)*step)). Survivors keep their original timestamps, so
// time order is preserved by construction and repeated Compact calls
// are idempotent for a fixed now.
func downsample(pts []Point, rawCut, step float64) []Point {
	split := sort.Search(len(pts), func(i int) bool { return pts[i].T >= rawCut })
	if split == 0 {
		return pts
	}
	old, recent := pts[:split], pts[split:]
	merge := false
	for i := 1; i < len(old); i++ {
		if floorDiv(old[i].T, step) == floorDiv(old[i-1].T, step) {
			merge = true
			break
		}
	}
	if !merge {
		return pts
	}
	var out []Point
	for i := 0; i < len(old); {
		bucket := floorDiv(old[i].T, step)
		j := i
		for j+1 < len(old) && floorDiv(old[j+1].T, step) == bucket {
			j++
		}
		out = append(out, old[j])
		i = j + 1
	}
	return append(out, recent...)
}

func floorDiv(t, step float64) float64 {
	k := t / step
	f := float64(int64(k))
	if k < f {
		f--
	}
	return f
}

// Dump renders every series and point deterministically — the test and
// acceptance format for "byte-identical per seed".
func (db *DB) Dump() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b strings.Builder
	for _, key := range db.order {
		s := db.series[key]
		fmt.Fprintf(&b, "%s\n", s.ID())
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %g %g\n", p.T, p.V)
		}
	}
	return b.String()
}

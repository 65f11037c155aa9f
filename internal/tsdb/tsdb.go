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
	"math"
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

// Options configures retention.
type Options struct {
	// Retention drops points older than now-Retention hours at Compact;
	// zero keeps every point.
	Retention float64
}

// DefaultLookback bounds, in hours, how far back an instant-vector
// selector reaches for the latest sample.
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
	// oldest is the earliest first point over all series as of the last
	// walk, +Inf with none, and NaN once a series is created or starts at
	// NaN: Compact walks the series only when it is not at or after the
	// retention cut. Appends to a series never move its first point.
	oldest float64
}

// New returns an empty DB with the given options.
func New(opts Options) *DB {
	return &DB{series: map[string]*Series{}, opts: opts, oldest: math.Inf(1)}
}

func (db *DB) getOrCreateLocked(key, name string, labels Labels) *Series {
	s, ok := db.series[key]
	if !ok {
		s = &Series{Name: name, Labels: labels}
		db.series[key] = s
		db.oldest = math.NaN() // an empty series counts as expired
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

// AppendRef records one sample through a cached handle. Labels must be
// canonical (built by NewLabels / LabelsFromAttrs). Appends whose
// timestamp is older than the series tail are dropped and counted in
// Dropped; a sample at exactly the tail timestamp replaces it (a
// re-scrape at the same aligned step is an update, not history). The
// cached series pointer is revalidated whenever Compact has deleted any
// series since it was resolved (the DB generation counter), so a ref
// survives retention deleting and later recreating its series.
//
//lint:ignore deadcode the tsdb, alert, flightrec and report tests build their series with it; the collector appends under its own lock
func (db *DB) AppendRef(ref *SeriesRef, t, v float64) {
	if db == nil || ref == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.appendRefLocked(ref, t, v)
}

// appendRefLocked is AppendRef with db.mu already held for writing, so
// a whole scrape can append under one lock.
func (db *DB) appendRefLocked(ref *SeriesRef, t, v float64) {
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
	for _, key := range db.keysNamed(name) {
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

// keysNamed returns the run of db.order that can hold series named name,
// found by two binary searches. A key is the name followed by the label
// signature, which always starts with '{', so in sorted order the keys
// of one name are contiguous. A name that itself holds '{' can put a
// longer name's keys in the run, so callers still compare Series.Name.
// Caller holds db.mu.
func (db *DB) keysNamed(name string) []string {
	lo := sort.Search(len(db.order), func(i int) bool { return cmpKeyName(db.order[i], name) >= 0 })
	hi := sort.Search(len(db.order), func(i int) bool { return cmpKeyName(db.order[i], name) > 0 })
	return db.order[lo:hi]
}

// cmpKeyName compares the first len(name)+1 bytes of key with name+"{",
// without building that string: negative, zero or positive as key sorts
// before, has the prefix, or sorts after.
func cmpKeyName(key, name string) int {
	if len(key) <= len(name) {
		if c := strings.Compare(key, name[:len(key)]); c != 0 {
			return c
		}
		return -1 // key is a prefix of name, so it sorts first
	}
	if c := strings.Compare(key[:len(name)], name); c != 0 {
		return c
	}
	return int(key[len(name)]) - '{'
}

// Compact applies retention relative to now: it drops every point older
// than now-Retention and deletes the series left empty.
//
//lint:ignore deadcode the tsdb and alert tests apply retention with it; the collector compacts under its own lock
func (db *DB) Compact(now float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.compactLocked(now)
}

// compactLocked is Compact with db.mu already held for writing.
func (db *DB) compactLocked(now float64) {
	cut := math.Inf(-1)
	if db.opts.Retention > 0 {
		cut = now - db.opts.Retention
	}
	if db.oldest >= cut {
		return // no point has expired and no series is empty
	}
	db.oldest = math.Inf(1)
	var dead []string
	for key, s := range db.series {
		pts := s.Points
		if db.opts.Retention > 0 {
			// Compact runs on every scrape, so usually no point or one
			// has expired since the last call: a forward scan from the
			// head costs what expires, where a search costs log n.
			i := 0
			for i < len(pts) && !(pts[i].T >= cut) {
				i++
			}
			pts = pts[i:]
		}
		if len(pts) == 0 {
			dead = append(dead, key)
			continue
		}
		// No copy: retention advances the slice head in place, so the
		// steady-state Compact (nothing to drop) allocates nothing.
		// Freed capacity is reclaimed when append growth reallocates.
		s.Points = pts
		db.oldest = min(db.oldest, pts[0].T)
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

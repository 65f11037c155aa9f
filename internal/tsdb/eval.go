package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Value is a query result: Scalar, Vector, or Matrix.
type Value interface{ valueKind() string }

// Scalar is a plain number.
type Scalar float64

func (Scalar) valueKind() string { return "scalar" }

// Sample is one labeled value in an instant vector. Name is the metric
// name for bare selectors; functions, aggregations and binary operators
// clear it (the result is no longer that metric).
type Sample struct {
	Name   string
	Labels Labels
	V      float64
}

// ID renders the sample's series identity.
func (s Sample) ID() string {
	if len(s.Labels) == 0 {
		if s.Name == "" {
			return "{}"
		}
		return s.Name
	}
	return s.Name + s.Labels.Signature()
}

// Vector is an instant vector: one sample per series, sorted by ID.
type Vector []Sample

func (Vector) valueKind() string { return "vector" }

// Matrix is a range-selector result: per-series points inside the
// window. Only meaningful as a function argument or a top-level query.
type Matrix []Series

func (Matrix) valueKind() string { return "matrix" }

// Query parses and evaluates expr at instant t (simulated hours).
func (db *DB) Query(expr string, t float64) (Value, error) {
	e, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	return db.Eval(e, t)
}

// Eval evaluates a parsed expression at instant t.
func (db *DB) Eval(e Expr, t float64) (Value, error) {
	switch e := e.(type) {
	case NumberLit:
		if e.val != nil {
			return e.val, nil
		}
		return Scalar(e.V), nil
	case SelectorExpr:
		if e.Range > 0 {
			return db.evalRange(e, t), nil
		}
		return db.evalInstant(e, t), nil
	case CallExpr:
		return db.evalCall(e, t)
	case AggExpr:
		return db.evalAgg(e, t)
	case BinExpr:
		return db.evalBin(e, t)
	}
	return nil, fmt.Errorf("tsdb: unhandled expression %T", e)
}

// evalInstant returns, per matching series, the most recent sample at or
// before t that is no older than the lookback window. It reads the
// store in place under the read lock — no point copies; the returned
// Labels alias the store, which is safe because series labels are
// immutable after creation. db.order is key-sorted, so the vector comes
// out sorted by series identity for free.
func (db *DB) evalInstant(sel SelectorExpr, t float64) Vector {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out Vector
	for _, key := range db.keysNamed(sel.Name) {
		s := db.series[key]
		if s.Name != sel.Name || !matchAll(sel.Matchers, s.Labels) {
			continue
		}
		i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
		if i == 0 {
			continue
		}
		p := s.Points[i-1]
		if p.T < t-DefaultLookback {
			continue
		}
		out = append(out, Sample{Name: s.Name, Labels: s.Labels, V: p.V})
	}
	return out
}

// foldRange evaluates a range function (rate, increase, *_over_time)
// over each matching series by folding the in-window points in place
// under the read lock — the window is never copied out of the store.
func (db *DB) foldRange(fn string, sel SelectorExpr, t float64) Vector {
	lo := t - sel.Range
	db.mu.RLock()
	defer db.mu.RUnlock()
	keys := db.keysNamed(sel.Name)
	out := make(Vector, 0, len(keys))
	for _, key := range keys {
		s := db.series[key]
		if s.Name != sel.Name || !matchAll(sel.Matchers, s.Labels) {
			continue
		}
		i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= lo })
		j := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
		if i >= j {
			continue
		}
		v, ok := applyRangeFn(fn, s.Points[i:j], sel.Range)
		if !ok {
			continue
		}
		out = append(out, Sample{Labels: s.Labels, V: v})
	}
	return out
}

// CounterIncrease sums the reset-adjusted increase of every series
// matching sel over [now-window, now], anchoring each series at the last
// sample before the window — or at zero if the series was born inside
// it (counters start at zero by definition). Like foldRange it folds
// the window in place under the read lock, so its cost follows the
// window, not the retained history. sel.Range is ignored.
func (db *DB) CounterIncrease(sel SelectorExpr, now, window float64) float64 {
	lo := now - window
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sum float64
	for _, key := range db.keysNamed(sel.Name) {
		s := db.series[key]
		if s.Name != sel.Name || !matchAll(sel.Matchers, s.Labels) {
			continue
		}
		pts := s.Points
		i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= lo })
		prev := 0.0
		if i > 0 {
			prev = pts[i-1].V
		}
		for _, p := range pts[i:] {
			if p.T > now {
				break
			}
			d := p.V - prev
			if d < 0 { // counter reset
				d = p.V
			}
			sum += d
			prev = p.V
		}
	}
	return sum
}

// evalRange returns, per matching series, the points with T in
// [t-range, t]. The window start is inclusive: scrapes are step-aligned,
// so a window that is a multiple of the scrape interval anchors exactly
// on a sample and increase/rate see the full delta across the window.
func (db *DB) evalRange(sel SelectorExpr, t float64) Matrix {
	lo := t - sel.Range
	var out Matrix
	for _, s := range db.Select(sel.Name, sel.Matchers) {
		i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= lo })
		j := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
		if i >= j {
			continue
		}
		out = append(out, Series{Name: s.Name, Labels: s.Labels, Points: s.Points[i:j]})
	}
	return out
}

func (db *DB) evalCall(c CallExpr, t float64) (Value, error) {
	switch c.Fn {
	case "rate", "increase", "avg_over_time", "max_over_time", "min_over_time",
		"sum_over_time", "count_over_time":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("tsdb: %s expects exactly one range-selector argument", c.Fn)
		}
		sel, ok := c.Args[0].(SelectorExpr)
		if !ok || sel.Range <= 0 {
			return nil, fmt.Errorf("tsdb: %s expects a range selector like name[1h]", c.Fn)
		}
		return db.foldRange(c.Fn, sel, t), nil
	case "histogram_quantile":
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("tsdb: histogram_quantile expects (q, bucket-vector)")
		}
		qv, err := db.Eval(c.Args[0], t)
		if err != nil {
			return nil, err
		}
		q, ok := qv.(Scalar)
		if !ok {
			return nil, fmt.Errorf("tsdb: histogram_quantile quantile must be a scalar")
		}
		bv, err := db.Eval(c.Args[1], t)
		if err != nil {
			return nil, err
		}
		vec, ok := bv.(Vector)
		if !ok {
			return nil, fmt.Errorf("tsdb: histogram_quantile input must be an instant vector of _bucket series")
		}
		return histogramQuantile(float64(q), vec), nil
	}
	return nil, fmt.Errorf("tsdb: unknown function %q", c.Fn)
}

// applyRangeFn folds the in-window points of one series. Series with too
// few points for the function are dropped (ok=false), never faked.
func applyRangeFn(fn string, pts []Point, window float64) (float64, bool) {
	switch fn {
	case "rate", "increase":
		if len(pts) < 2 {
			return 0, false
		}
		var inc float64
		for i := 1; i < len(pts); i++ {
			d := pts[i].V - pts[i-1].V
			if d < 0 {
				// Counter reset: the counter restarted from zero, so the
				// whole new value is growth.
				d = pts[i].V
			}
			inc += d
		}
		if fn == "rate" {
			return inc / window, true // per simulated hour
		}
		return inc, true
	case "avg_over_time":
		var sum float64
		for _, p := range pts {
			sum += p.V
		}
		return sum / float64(len(pts)), true
	case "max_over_time":
		m := pts[0].V
		for _, p := range pts[1:] {
			if p.V > m {
				m = p.V
			}
		}
		return m, true
	case "min_over_time":
		m := pts[0].V
		for _, p := range pts[1:] {
			if p.V < m {
				m = p.V
			}
		}
		return m, true
	case "sum_over_time":
		var sum float64
		for _, p := range pts {
			sum += p.V
		}
		return sum, true
	case "count_over_time":
		return float64(len(pts)), true
	}
	return 0, false
}

// histogramQuantile groups _bucket samples by their labels minus `le`,
// treats the bucket values as cumulative counts (as the collector
// scrapes them, and as increase() preserves), and interpolates the
// q-quantile linearly inside the containing bucket — the same algorithm
// as telemetry.Metric.Quantile, so the two observability layers agree.
//
// Alert rules evaluate it on every step, so it groups in pooled working
// space: every bucket's group key (its signature minus `le`) goes into
// one byte buffer, a stable sort by key brings each group's buckets
// together in arrival order and the groups into key order, and a group's
// labels are built only when it yields a sample. With a warm pool only
// the result allocates.
func histogramQuantile(q float64, vec Vector) Vector {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	w := quantilePool.Get().(*quantileWork)
	byKey, bs := &w.byKey, &w.bounds
	byKey.keys, byKey.buckets = byKey.keys[:0], byKey.buckets[:0]
	for i, s := range vec {
		le, ok := parseBound(s.Labels.Get("le"))
		if !ok {
			continue
		}
		lo := len(byKey.keys)
		byKey.keys = s.Labels.appendSignature(byKey.keys, "le")
		byKey.buckets = append(byKey.buckets, bucketRef{lo: lo, hi: len(byKey.keys), le: le, sample: i})
	}
	sort.Stable(byKey)
	var out Vector
	for i, n := 0, len(byKey.buckets); i < n; {
		first := i
		bs.bounds, bs.cums = bs.bounds[:0], bs.cums[:0]
		for ; i < n && bytes.Equal(byKey.key(i), byKey.key(first)); i++ {
			b := byKey.buckets[i]
			bs.bounds = append(bs.bounds, b.le)
			bs.cums = append(bs.cums, vec[b.sample].V)
		}
		sort.Sort(bs)
		if v, ok := quantileFromCumulative(q, bs.bounds, bs.cums); ok {
			labels := vec[byKey.buckets[first].sample].Labels
			out = append(out, Sample{Labels: labels.Without("le"), V: v})
		}
	}
	quantilePool.Put(w)
	return out
}

// quantileWork is histogramQuantile's working space, pooled because
// alert rules evaluate quantiles on every step.
type quantileWork struct {
	byKey  bucketsByKey
	bounds boundSort
}

var quantilePool = sync.Pool{New: func() any { return new(quantileWork) }}

// bucketRef is one bucket sample: its group key keys[lo:hi], its parsed
// `le` bound and its index in the input vector.
type bucketRef struct {
	lo, hi int
	le     float64
	sample int
}

// bucketsByKey sorts bucket samples by group key.
type bucketsByKey struct {
	keys    []byte
	buckets []bucketRef
}

func (b *bucketsByKey) key(i int) []byte   { return b.keys[b.buckets[i].lo:b.buckets[i].hi] }
func (b *bucketsByKey) Len() int           { return len(b.buckets) }
func (b *bucketsByKey) Less(i, j int) bool { return bytes.Compare(b.key(i), b.key(j)) < 0 }
func (b *bucketsByKey) Swap(i, j int)      { b.buckets[i], b.buckets[j] = b.buckets[j], b.buckets[i] }

type boundSort struct {
	bounds []float64
	cums   []float64
}

func (b *boundSort) Len() int           { return len(b.bounds) }
func (b *boundSort) Less(i, j int) bool { return b.bounds[i] < b.bounds[j] }
func (b *boundSort) Swap(i, j int) {
	b.bounds[i], b.bounds[j] = b.bounds[j], b.bounds[i]
	b.cums[i], b.cums[j] = b.cums[j], b.cums[i]
}

// quantileFromCumulative mirrors telemetry.Metric.Quantile over
// cumulative (le-style) buckets with float counts. Groups with no
// observations report not-ok and are dropped.
func quantileFromCumulative(q float64, bounds, cums []float64) (float64, bool) {
	if len(bounds) == 0 {
		return 0, false
	}
	total := cums[len(cums)-1]
	if total <= 0 {
		return 0, false
	}
	rank := q * total
	lower := 0.0
	prevCum := 0.0
	for i, cum := range cums {
		if cum >= rank {
			if math.IsInf(bounds[i], 1) {
				return lower, true
			}
			count := cum - prevCum
			if count <= 0 {
				return bounds[i], true
			}
			frac := (rank - prevCum) / count
			return lower + frac*(bounds[i]-lower), true
		}
		prevCum = cum
		if !math.IsInf(bounds[i], 1) {
			lower = bounds[i]
		}
	}
	return lower, true
}

func (db *DB) evalAgg(a AggExpr, t float64) (Value, error) {
	v, err := db.Eval(a.E, t)
	if err != nil {
		return nil, err
	}
	vec, ok := v.(Vector)
	if !ok {
		return nil, fmt.Errorf("tsdb: %s expects an instant vector", a.Op)
	}
	type group struct {
		labels Labels
		sum    float64
		max    float64
		min    float64
		n      int
	}
	groups := map[string]*group{}
	var order []string
	for _, s := range vec {
		gl := s.Labels.Keep(a.By...)
		key := gl.Signature()
		g, exists := groups[key]
		if !exists {
			g = &group{labels: gl, max: math.Inf(-1), min: math.Inf(1)}
			groups[key] = g
			order = append(order, key)
		}
		g.sum += s.V
		if s.V > g.max {
			g.max = s.V
		}
		if s.V < g.min {
			g.min = s.V
		}
		g.n++
	}
	sort.Strings(order)
	var out Vector
	for _, key := range order {
		g := groups[key]
		var val float64
		switch a.Op {
		case "sum":
			val = g.sum
		case "avg":
			val = g.sum / float64(g.n)
		case "max":
			val = g.max
		case "min":
			val = g.min
		case "count":
			val = float64(g.n)
		}
		out = append(out, Sample{Labels: g.labels, V: val})
	}
	return out, nil
}

func (db *DB) evalBin(b BinExpr, t float64) (Value, error) {
	lv, err := db.Eval(b.LHS, t)
	if err != nil {
		return nil, err
	}
	rv, err := db.Eval(b.RHS, t)
	if err != nil {
		return nil, err
	}
	cmp := isCmpOp(b.Op)
	switch l := lv.(type) {
	case Scalar:
		switch r := rv.(type) {
		case Scalar:
			v, keep := applyOp(b.Op, float64(l), float64(r))
			if cmp {
				if keep {
					return Scalar(1), nil
				}
				return Scalar(0), nil
			}
			return Scalar(v), nil
		case Vector:
			var out Vector
			for _, s := range r {
				v, keep := applyOp(b.Op, float64(l), s.V)
				if cmp {
					if keep {
						out = append(out, Sample{Labels: s.Labels, V: s.V})
					}
					continue
				}
				out = append(out, Sample{Labels: s.Labels, V: v})
			}
			return out, nil
		}
	case Vector:
		switch r := rv.(type) {
		case Scalar:
			var out Vector
			for _, s := range l {
				v, keep := applyOp(b.Op, s.V, float64(r))
				if cmp {
					if keep {
						out = append(out, Sample{Labels: s.Labels, V: s.V})
					}
					continue
				}
				out = append(out, Sample{Labels: s.Labels, V: v})
			}
			return out, nil
		case Vector:
			return vectorBin(b.Op, l, r)
		}
	}
	return nil, fmt.Errorf("tsdb: %s is not defined between %s and %s",
		b.Op, lv.valueKind(), rv.valueKind())
}

// vectorBin matches samples one-to-one on identical label sets (metric
// names are ignored, as in Prometheus arithmetic). Unmatched samples
// drop out; duplicate label sets on either side are an error.
func vectorBin(op string, l, r Vector) (Value, error) {
	rhs := map[string]Sample{}
	for _, s := range r {
		key := s.Labels.Signature()
		if _, dup := rhs[key]; dup {
			return nil, fmt.Errorf("tsdb: duplicate series %s on right side of %s", key, op)
		}
		rhs[key] = s
	}
	seen := map[string]bool{}
	cmp := isCmpOp(op)
	var out Vector
	for _, s := range l {
		key := s.Labels.Signature()
		if seen[key] {
			return nil, fmt.Errorf("tsdb: duplicate series %s on left side of %s", key, op)
		}
		seen[key] = true
		o, ok := rhs[key]
		if !ok {
			continue
		}
		v, keep := applyOp(op, s.V, o.V)
		if cmp {
			if keep {
				out = append(out, Sample{Labels: s.Labels, V: s.V})
			}
			continue
		}
		out = append(out, Sample{Labels: s.Labels, V: v})
	}
	return out, nil
}

func isCmpOp(op string) bool {
	switch op {
	case ">", ">=", "<", "<=", "==", "!=":
		return true
	}
	return false
}

// applyOp computes arithmetic ops (keep unused) or evaluates comparisons
// (v unused, keep = condition holds).
func applyOp(op string, a, b float64) (v float64, keep bool) {
	switch op {
	case "+":
		return a + b, false
	case "-":
		return a - b, false
	case "*":
		return a * b, false
	case "/":
		if b == 0 {
			return math.NaN(), false
		}
		return a / b, false
	case ">":
		return 0, a > b
	case ">=":
		return 0, a >= b
	case "<":
		return 0, a < b
	case "<=":
		return 0, a <= b
	case "==":
		return 0, a == b
	case "!=":
		return 0, a != b
	}
	return math.NaN(), false
}

// FormatValue renders a query result deterministically: scalars as bare
// numbers, vectors one sample per line sorted by series identity,
// matrices one series per line with their points.
func FormatValue(v Value) string {
	switch v := v.(type) {
	case nil:
		return "(empty)\n"
	case Scalar:
		return fmt.Sprintf("%g\n", float64(v))
	case Vector:
		if len(v) == 0 {
			return "(empty vector)\n"
		}
		var b strings.Builder
		for _, s := range v {
			fmt.Fprintf(&b, "%-48s %g\n", s.ID(), s.V)
		}
		return b.String()
	case Matrix:
		if len(v) == 0 {
			return "(empty range)\n"
		}
		var b strings.Builder
		for _, s := range v {
			fmt.Fprintf(&b, "%s\n", s.ID())
			for _, p := range s.Points {
				fmt.Fprintf(&b, "  %g @ %g\n", p.V, p.T)
			}
		}
		return b.String()
	}
	return fmt.Sprintf("%v\n", v)
}

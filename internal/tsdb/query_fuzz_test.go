package tsdb

import (
	"math"
	"testing"
)

// fuzzQueryDB is the fixed store FuzzQuery evaluates against: four
// request counters and their four-bucket latency histograms over 4 h
// at quarter-hour steps. Each series carries an extra label besides le,
// whose values hold a quote, a backslash, non-ASCII and invalid UTF-8.
// The first counter resets at 2.5 h.
func fuzzQueryDB() *DB {
	db := New(Options{})
	svcs := []string{`a"q`, `b\z`, "ünï", "\xff"}
	les := []string{"0.1", "0.5", "1", "+Inf"}
	for i := 0; i <= 16; i++ {
		t := float64(i) / 4
		for j, svc := range svcs {
			ls := NewLabels(L("svc", svc), L("code", "200"))
			v := float64(i * (j + 1))
			if j == 0 && i >= 10 {
				v = float64(i - 10)
			}
			db.AppendRef(db.Ref("req", ls), t, v)
			var cum float64
			for k, le := range les {
				cum += float64((i + k + j) % 3)
				db.AppendRef(db.Ref("lat_bucket", ls.With("le", le)), t, cum*float64(i+1))
			}
		}
	}
	return db
}

// FuzzQuery checks that any expression ParseExpr accepts evaluates
// without a panic at any quarter hour, and that evaluating it twice
// gives bit-identical results. The seed corpus, one file per edge case
// (NaN and infinite quantiles, zero and huge ranges, division by zero,
// nested aggregations, regex matchers), is in testdata/fuzz/FuzzQuery.
func FuzzQuery(f *testing.F) {
	db := fuzzQueryDB()
	f.Fuzz(func(t *testing.T, expr string, at int16) {
		e, err := ParseExpr(expr)
		if err != nil {
			return
		}
		now := float64(at) / 4
		v1, err1 := db.Eval(e, now)
		v2, err2 := db.Eval(e, now)
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("%s at %v: errors %v, then %v", expr, now, err1, err2)
		}
		if !sameValue(v1, v2) {
			t.Fatalf("%s at %v: %s, then %s", expr, now, FormatValue(v1), FormatValue(v2))
		}
	})
}

// sameValue reports whether two query results are identical, values
// compared by their bits so NaNs compare too.
func sameValue(a, b Value) bool {
	switch a := a.(type) {
	case nil:
		return b == nil
	case Scalar:
		b, ok := b.(Scalar)
		return ok && math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	case Vector:
		b, ok := b.(Vector)
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID() != b[i].ID() || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
				return false
			}
		}
		return true
	case Matrix:
		b, ok := b.(Matrix)
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID() != b[i].ID() || len(a[i].Points) != len(b[i].Points) {
				return false
			}
			for j, p := range a[i].Points {
				q := b[i].Points[j]
				if math.Float64bits(p.T) != math.Float64bits(q.T) || math.Float64bits(p.V) != math.Float64bits(q.V) {
					return false
				}
			}
		}
		return true
	}
	return false
}

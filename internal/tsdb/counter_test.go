package tsdb

import (
	"math"
	"testing"
)

// copyIncrease is the copy-based counter fold that CounterIncrease
// replaced, kept as the reference: it copies every matching series out
// of the store and walks all of its points.
func copyIncrease(db *DB, sel SelectorExpr, now, window float64) float64 {
	lo := now - window
	var sum float64
	for _, series := range db.Select(sel.Name, sel.Matchers) {
		prev, havePrev := 0.0, false
		for _, p := range series.Points {
			if p.T > now {
				break
			}
			if p.T < lo {
				prev, havePrev = p.V, true
				continue
			}
			if !havePrev {
				sum += p.V
				prev, havePrev = p.V, true
				continue
			}
			d := p.V - prev
			if d < 0 {
				d = p.V
			}
			sum += d
			prev = p.V
		}
	}
	return sum
}

// fuzzSelectors are the selectors FuzzCounterIncrease folds: both c
// series, one of them by equality, regex and negation, the cc series
// whose name extends c, and a name no appended series has.
var fuzzSelectors = []string{`c`, `c{k="a"}`, `c{k=~"a|b"}`, `c{k!="a"}`, `missing`, `cc`}

// FuzzCounterIncrease checks that the in-place fold is bit-identical to
// the copy-based reference. Each 3-byte record of pts appends one sample:
// series (c{k="a"}, c{k="b"} or cc), time in quarter hours, and value
// in thirds, so sums round. Out-of-order appends are dropped and
// equal-time appends overwrite, as in the store; values that fall are
// counter resets. now and window are quarter hours, so windows can lie
// before, across or after the data, and be zero or negative. The seed
// corpus, one file per such case, is in testdata/fuzz/FuzzCounterIncrease.
func FuzzCounterIncrease(f *testing.F) {
	f.Fuzz(func(t *testing.T, pts []byte, now, window int16, which uint8) {
		db := New(Options{})
		series := []Labels{NewLabels(L("k", "a")), NewLabels(L("k", "b")), nil}
		for ; len(pts) >= 3; pts = pts[3:] {
			name := "c"
			s := int(pts[0]) % 3
			if s == 2 {
				name = "cc"
			}
			db.Append(name, series[s], float64(int8(pts[1]))/4, float64(int8(pts[2]))/3)
		}
		e, err := ParseExpr(fuzzSelectors[int(which)%len(fuzzSelectors)])
		if err != nil {
			t.Fatal(err)
		}
		sel := e.(SelectorExpr)
		n, w := float64(now)/4, float64(window)/4
		got, want := db.CounterIncrease(sel, n, w), copyIncrease(db, sel, n, w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("CounterIncrease(%s, now=%v, window=%v) = %v, reference %v\n%s",
				sel, n, w, got, want, db.Dump())
		}
	})
}

func TestCounterIncreaseAllocatesNothing(t *testing.T) {
	db := New(Options{})
	for i := 0; i < 672; i++ {
		db.Append("c", NewLabels(L("k", "a")), float64(i)/4, float64(i))
		db.Append("c", NewLabels(L("k", "b")), float64(i)/4, float64(2*i))
	}
	e, err := ParseExpr(`c{k=~"a|b"}`)
	if err != nil {
		t.Fatal(err)
	}
	sel := e.(SelectorExpr)
	var sum float64
	if allocs := testing.AllocsPerRun(100, func() { sum += db.CounterIncrease(sel, 167, 6) }); allocs != 0 {
		t.Errorf("CounterIncrease allocates %v per call, want 0", allocs)
	}
	if sum == 0 {
		t.Error("the fold saw no increase")
	}
}

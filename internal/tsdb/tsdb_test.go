package tsdb

import (
	"strings"
	"testing"
)

func TestLabelsCanonical(t *testing.T) {
	a := NewLabels(L("b", "2"), L("a", "1"))
	b := NewLabels(L("a", "1"), L("b", "2"))
	if !a.Equal(b) {
		t.Errorf("order-insensitive construction: %v != %v", a, b)
	}
	if got := a.Signature(); got != `{a="1",b="2"}` {
		t.Errorf("signature = %s", got)
	}
	// Later duplicate key wins.
	c := NewLabels(L("k", "old"), L("k", "new"))
	if c.Get("k") != "new" || len(c) != 1 {
		t.Errorf("duplicate key: %v", c)
	}
	if got := a.Without("a").Signature(); got != `{b="2"}` {
		t.Errorf("Without = %s", got)
	}
	if got := a.Keep("a").Signature(); got != `{a="1"}` {
		t.Errorf("Keep = %s", got)
	}
}

func TestAppendOrderingAndDropped(t *testing.T) {
	db := New(Options{})
	ls := NewLabels(L("x", "1"))
	db.Append("m", ls, 1, 10)
	db.Append("m", ls, 2, 20)
	db.Append("m", ls, 1.5, 99) // out of order: dropped
	db.Append("m", ls, 2, 25)   // same timestamp: replace
	if db.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", db.Dropped())
	}
	ss := db.Select("m", nil)
	if len(ss) != 1 || len(ss[0].Points) != 2 {
		t.Fatalf("series = %+v", ss)
	}
	if ss[0].Points[1] != (Point{T: 2, V: 25}) {
		t.Errorf("tail = %+v, want replace at equal T", ss[0].Points[1])
	}
	// Select returns copies.
	ss[0].Points[0].V = -1
	if db.Select("m", nil)[0].Points[0].V != 10 {
		t.Error("Select leaked internal storage")
	}
}

func TestSelectMatchers(t *testing.T) {
	db := New(Options{})
	db.Append("req", NewLabels(L("flavor", "m1.small"), L("project", "a")), 1, 1)
	db.Append("req", NewLabels(L("flavor", "m1.large"), L("project", "a")), 1, 2)
	db.Append("req", NewLabels(L("flavor", "gpu.a100"), L("project", "b")), 1, 3)
	db.Append("other", nil, 1, 4)

	eq, _ := NewMatcher("flavor", MatchEq, "m1.large")
	if got := db.Select("req", []Matcher{eq}); len(got) != 1 || got[0].Points[0].V != 2 {
		t.Errorf("eq matcher: %+v", got)
	}
	ne, _ := NewMatcher("project", MatchNotEq, "a")
	if got := db.Select("req", []Matcher{ne}); len(got) != 1 || got[0].Points[0].V != 3 {
		t.Errorf("ne matcher: %+v", got)
	}
	re, _ := NewMatcher("flavor", MatchRe, "m1\\..*")
	if got := db.Select("req", []Matcher{re}); len(got) != 2 {
		t.Errorf("re matcher: %+v", got)
	}
	nre, _ := NewMatcher("flavor", MatchNotRe, "m1\\..*")
	if got := db.Select("req", []Matcher{nre}); len(got) != 1 || got[0].Points[0].V != 3 {
		t.Errorf("nre matcher: %+v", got)
	}
	// A missing label reads as "": {flavor!="zzz"} matches label-less series.
	if got := db.Select("other", []Matcher{ne}); len(got) != 1 {
		t.Errorf("missing label should match !=: %+v", got)
	}
	// Results are sorted by label signature.
	all := db.Select("req", nil)
	var ids []string
	for _, s := range all {
		ids = append(ids, s.ID())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("unsorted select: %v", ids)
		}
	}
}

func TestRetentionAndDownsampling(t *testing.T) {
	db := New(Options{Retention: 10, RawWindow: 4, DownsampleStep: 1})
	for i := 0; i <= 48; i++ { // every 0.25h from 0 to 12
		db.Append("g", nil, float64(i)*0.25, float64(i))
	}
	db.Compact(12)
	pts := db.Select("g", nil)[0].Points
	// Retention: nothing older than 12-10 = 2.
	if pts[0].T < 2 {
		t.Errorf("retention failed: first point at %v", pts[0].T)
	}
	// Points older than 12-4 = 8 are one per 1h step (last of each step);
	// recent points keep full 0.25h resolution.
	var olderCount, recentCount int
	for _, p := range pts {
		if p.T < 8 {
			olderCount++
		} else {
			recentCount++
		}
	}
	// Steps [2,3) [3,4) ... [7,8): survivors at 2.75, 3.75, ..., 7.75.
	if olderCount != 6 {
		t.Errorf("downsampled count = %d, want 6 (%+v)", olderCount, pts)
	}
	if recentCount != 17 { // 8.0 .. 12.0 inclusive at 0.25 steps
		t.Errorf("recent count = %d, want 17", recentCount)
	}
	// Compact is idempotent for a fixed now.
	before := db.Dump()
	db.Compact(12)
	if db.Dump() != before {
		t.Error("Compact not idempotent")
	}
	// A fully-aged-out series disappears.
	db.Append("dead", nil, 1, 1)
	db.Compact(50)
	if got := db.Select("dead", nil); len(got) != 0 {
		t.Errorf("dead series survived: %+v", got)
	}
}

func TestInstantSelectorLookback(t *testing.T) {
	db := New(Options{Lookback: 1})
	db.Append("m", nil, 5, 42)
	if v, _ := db.Query("m", 5.5); len(v.(Vector)) != 1 {
		t.Error("sample within lookback not found")
	}
	if v, _ := db.Query("m", 7); len(v.(Vector)) != 0 {
		t.Error("stale sample (older than lookback) should not be returned")
	}
	if v, _ := db.Query("m", 4); len(v.(Vector)) != 0 {
		t.Error("future sample returned for past instant")
	}
}

func TestRateIncreaseAcrossCounterResets(t *testing.T) {
	db := New(Options{})
	// Counter: 0,10,25, reset, 5,12 at t=0..4.
	for i, v := range []float64{0, 10, 25, 5, 12} {
		db.Append("c", nil, float64(i), v)
	}
	v, err := db.Query("increase(c[4])", 4)
	if err != nil {
		t.Fatal(err)
	}
	vec := v.(Vector)
	// 10 + 15 + 5 (reset: whole new value counts) + 7 = 37.
	if len(vec) != 1 || vec[0].V != 37 {
		t.Errorf("increase = %+v, want 37", vec)
	}
	r, err := db.Query("rate(c[4])", 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.(Vector)[0].V; got != 37.0/4 {
		t.Errorf("rate = %v, want %v", got, 37.0/4)
	}
	// A series with a single in-window point is dropped, not faked.
	db.Append("solo", nil, 4, 100)
	if v, _ := db.Query("increase(solo[1])", 4); len(v.(Vector)) != 0 {
		t.Errorf("single-point increase should drop the series: %+v", v)
	}
}

func TestOverTimeFunctions(t *testing.T) {
	db := New(Options{})
	for i, v := range []float64{1, 5, 3, 9} {
		db.Append("g", nil, float64(i), v)
	}
	cases := map[string]float64{
		"avg_over_time(g[3])":   4.5,
		"max_over_time(g[3])":   9,
		"min_over_time(g[3])":   1,
		"sum_over_time(g[3])":   18,
		"count_over_time(g[3])": 4,
	}
	for expr, want := range cases {
		v, err := db.Query(expr, 3)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if got := v.(Vector)[0].V; got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	db := New(Options{})
	// Cumulative buckets for 100 observations uniform over (0, 10]:
	// le=2.5: 25, le=5: 50, le=7.5: 75, le=10: 100, +Inf: 100.
	for le, cum := range map[string]float64{"2.5": 25, "5": 50, "7.5": 75, "10": 100, "+Inf": 100} {
		db.Append("lat_bucket", NewLabels(L("le", le)), 1, cum)
	}
	for q, want := range map[string]float64{"0.5": 5, "0.25": 2.5, "0.9": 9, "1": 10} {
		v, err := db.Query("histogram_quantile("+q+", lat_bucket)", 1)
		if err != nil {
			t.Fatal(err)
		}
		vec := v.(Vector)
		if len(vec) != 1 || !approx(vec[0].V, want) {
			t.Errorf("q=%s: %+v, want %v", q, vec, want)
		}
	}
	// Rank falling past the last finite bound reports that bound
	// (overflow bucket has no upper edge to interpolate toward).
	db.Append("o_bucket", NewLabels(L("le", "1")), 1, 50)
	db.Append("o_bucket", NewLabels(L("le", "+Inf")), 1, 100)
	v, _ := db.Query("histogram_quantile(0.9, o_bucket)", 1)
	if got := v.(Vector)[0].V; got != 1 {
		t.Errorf("overflow quantile = %v, want lower bound 1", got)
	}
	// Groups split by non-le labels; empty groups are dropped.
	db.Append("m_bucket", NewLabels(L("le", "1"), L("k", "a")), 1, 10)
	db.Append("m_bucket", NewLabels(L("le", "+Inf"), L("k", "a")), 1, 10)
	db.Append("m_bucket", NewLabels(L("le", "1"), L("k", "b")), 1, 0)
	db.Append("m_bucket", NewLabels(L("le", "+Inf"), L("k", "b")), 1, 0)
	v, _ = db.Query("histogram_quantile(0.5, m_bucket)", 1)
	vec := v.(Vector)
	if len(vec) != 1 || vec[0].Labels.Get("k") != "a" {
		t.Errorf("grouping: %+v", vec)
	}
}

func TestBinaryOpsAndAggregation(t *testing.T) {
	db := New(Options{})
	db.Append("a", NewLabels(L("k", "x")), 1, 10)
	db.Append("a", NewLabels(L("k", "y")), 1, 20)
	db.Append("b", NewLabels(L("k", "x")), 1, 4)

	// vector-scalar arithmetic.
	v, err := db.Query("a * 2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if vec := v.(Vector); vec[0].V != 20 || vec[1].V != 40 {
		t.Errorf("a*2 = %+v", vec)
	}
	// vector-vector matches on label sets; unmatched drop.
	v, err = db.Query("a - b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if vec := v.(Vector); len(vec) != 1 || vec[0].V != 6 || vec[0].Labels.Get("k") != "x" {
		t.Errorf("a-b = %+v", vec)
	}
	// comparison filters keep the original value.
	v, err = db.Query("a > 15", 1)
	if err != nil {
		t.Fatal(err)
	}
	if vec := v.(Vector); len(vec) != 1 || vec[0].V != 20 {
		t.Errorf("a>15 = %+v", vec)
	}
	// scalar/scalar.
	v, err = db.Query("(3 + 4) * 2", 1)
	if err != nil || v.(Scalar) != 14 {
		t.Errorf("scalar arith = %v, %v", v, err)
	}
	// aggregation with and without by.
	v, err = db.Query("sum(a)", 1)
	if err != nil || v.(Vector)[0].V != 30 {
		t.Errorf("sum(a) = %v, %v", v, err)
	}
	v, err = db.Query("sum by (k) (a)", 1)
	if err != nil {
		t.Fatal(err)
	}
	if vec := v.(Vector); len(vec) != 2 || vec[0].Labels.Get("k") != "x" {
		t.Errorf("sum by k = %+v", vec)
	}
	for expr, want := range map[string]float64{
		"avg(a)": 15, "max(a)": 20, "min(a)": 10, "count(a)": 2,
	} {
		v, err := db.Query(expr, 1)
		if err != nil || v.(Vector)[0].V != want {
			t.Errorf("%s = %v, %v (want %v)", expr, v, err, want)
		}
	}
	// division by zero yields NaN, not a panic.
	db.Append("z", NewLabels(L("k", "x")), 1, 0)
	v, err = db.Query("a / z", 1)
	if err != nil {
		t.Fatal(err)
	}
	if vec := v.(Vector); len(vec) != 1 || vec[0].V == vec[0].V { // NaN != NaN
		t.Errorf("div by zero = %+v, want NaN", vec)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                             // empty
		"rate(x)",                      // needs a range
		"x[0]",                         // non-positive duration
		"x[1w]",                        // unknown unit
		"x{k=v}",                       // unquoted label value
		"x{k=~\"(\"}",                  // bad regex
		"sum by (a (x)",                // unclosed by-clause
		"histogram_quantile(x_bucket)", // missing q
		"1 + ",                         // dangling operator
		"x 5",                          // trailing garbage
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			if _, err2 := New(Options{}).Query(src, 0); err2 == nil {
				t.Errorf("no error for %q", src)
			}
		}
	}
}

func TestFormatValueDeterministic(t *testing.T) {
	db := New(Options{})
	db.Append("m", NewLabels(L("b", "2")), 1, 1)
	db.Append("m", NewLabels(L("a", "1")), 1, 2)
	v, err := db.Query("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatValue(v)
	if !strings.Contains(out, `m{a="1"}`) || !strings.Contains(out, `m{b="2"}`) {
		t.Errorf("format: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], `m{a="1"}`) {
		t.Errorf("ordering: %v", lines)
	}
	if got := FormatValue(Vector(nil)); got != "(empty vector)\n" {
		t.Errorf("empty vector = %q", got)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// A SeriesRef must keep working across Compact deleting and recreating
// its series: the cached pointer is generation-checked, so appends after
// the deletion transparently re-resolve.
func TestAppendRefSurvivesCompact(t *testing.T) {
	db := New(Options{Retention: 1})
	ref := db.Ref("r", NewLabels(L("k", "v")))
	db.AppendRef(ref, 1, 10)
	if got := db.Select("r", nil); len(got) != 1 || got[0].Points[0].V != 10 {
		t.Fatalf("initial append via ref: %+v", got)
	}

	// Compact far in the future: the series empties and is deleted.
	db.Compact(100)
	if db.SeriesCount() != 0 {
		t.Fatalf("series not deleted, count = %d", db.SeriesCount())
	}

	// The stale cached pointer must not resurrect the dead series
	// object: this append re-creates the series through the map.
	db.AppendRef(ref, 100.5, 20)
	got := db.Select("r", []Matcher{{Key: "k", Value: "v"}})
	if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0].V != 20 {
		t.Fatalf("append after compact-delete: %+v", got)
	}

	// Ref and plain Append hit the same series (same key construction).
	db.Append("r", NewLabels(L("k", "v")), 101, 30)
	if got := db.Select("r", nil); len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("ref and Append diverged: %+v", got)
	}

	// Out-of-order appends through a ref are dropped and counted, same
	// as Append.
	db.AppendRef(ref, 50, 99)
	if db.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", db.Dropped())
	}
}

package tsdb

import (
	"math"
	"strings"
	"testing"
)

func TestLabelsCanonical(t *testing.T) {
	a := NewLabels(L("b", "2"), L("a", "1"))
	b := NewLabels(L("a", "1"), L("b", "2"))
	if a.Signature() != b.Signature() || len(a) != len(b) {
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
	db.AppendRef(db.Ref("m", ls), 1, 10)
	db.AppendRef(db.Ref("m", ls), 2, 20)
	db.AppendRef(db.Ref("m", ls), 1.5, 99) // out of order: dropped
	db.AppendRef(db.Ref("m", ls), 2, 25)   // same timestamp: replace
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
	db.AppendRef(db.Ref("req", NewLabels(L("flavor", "m1.small"), L("project", "a"))), 1, 1)
	db.AppendRef(db.Ref("req", NewLabels(L("flavor", "m1.large"), L("project", "a"))), 1, 2)
	db.AppendRef(db.Ref("req", NewLabels(L("flavor", "gpu.a100"), L("project", "b"))), 1, 3)
	db.AppendRef(db.Ref("other", nil), 1, 4)

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

// TestNamesSharingAPrefix: the keys of re, reqa and req_total sort
// around req's, and the name `req{a="1"}` puts a key inside req's run. A
// selector, a range function and CounterIncrease on req must each see
// req's three series only, in key order.
func TestNamesSharingAPrefix(t *testing.T) {
	db := New(Options{})
	a1, a2 := NewLabels(L("a", "1")), NewLabels(L("a", "2"))
	for _, name := range []string{"re", "reqa", "req_total", `req{a="1"}`} {
		db.AppendRef(db.Ref(name, a1), 1, 1000)
		db.AppendRef(db.Ref(name, a1), 2, 5000)
	}
	for i, ls := range []Labels{a1, a2, nil} {
		scale := []float64{1, 10, 100}[i]
		db.AppendRef(db.Ref("req", ls), 1, scale)
		db.AppendRef(db.Ref("req", ls), 2, 3*scale)
	}
	wantIDs := `req{a="1"} req{a="2"} req`
	ids := func(v Vector) string {
		var out []string
		for _, s := range v {
			out = append(out, (&Series{Name: "req", Labels: s.Labels}).ID())
		}
		return strings.Join(out, " ")
	}

	var sel []string
	for _, s := range db.Select("req", nil) {
		if s.Name != "req" {
			t.Errorf("Select(req) returned a %s series", s.Name)
		}
		sel = append(sel, s.ID())
	}
	if got := strings.Join(sel, " "); got != wantIDs {
		t.Errorf("Select(req) = %s, want %s", got, wantIDs)
	}
	for _, c := range []struct {
		expr string
		want []float64
	}{
		{"req", []float64{3, 30, 300}},
		{"increase(req[1])", []float64{2, 20, 200}},
	} {
		v, err := db.Query(c.expr, 2)
		if err != nil {
			t.Fatal(err)
		}
		vec := v.(Vector)
		if got := ids(vec); got != wantIDs {
			t.Errorf("%s: series %s, want %s", c.expr, got, wantIDs)
			continue
		}
		for i, s := range vec {
			if s.V != c.want[i] {
				t.Errorf("%s: %s = %v, want %v", c.expr, ids(vec[i:i+1]), s.V, c.want[i])
			}
		}
	}
	// Born inside the window, each series counts from zero.
	if got := db.CounterIncrease(SelectorExpr{Name: "req"}, 2, 1); got != 333 {
		t.Errorf("CounterIncrease(req) = %v, want 333", got)
	}
}

// TestCmpKeyNameMatchesReference: cmpKeyName orders a key against
// name+"{" as comparing with the built string does, for keys shorter
// than, as long as and longer than the name.
func TestCmpKeyNameMatchesReference(t *testing.T) {
	keys := []string{"", "r", "re", "req", "req{", "req{}", `req{a="1"}`,
		"req_total{}", "reqa{}", "re{}", "req|", "rez", "req{}x{}"}
	names := []string{"", "r", "re", "req", "req{}x", "req_total", "zz"}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for _, name := range names {
		p := name + "{"
		for _, key := range keys {
			want := sign(strings.Compare(key, p))
			if strings.HasPrefix(key, p) {
				want = 0
			}
			if got := sign(cmpKeyName(key, name)); got != want {
				t.Errorf("cmpKeyName(%q, %q) = %d, want %d", key, name, got, want)
			}
		}
	}
}

func TestRetentionAndDownsampling(t *testing.T) {
	db := New(Options{Retention: 10})
	for i := 0; i <= 48; i++ { // every 0.25h from 0 to 12
		db.AppendRef(db.Ref("g", nil), float64(i)*0.25, float64(i))
	}
	db.Compact(12)
	pts := db.Select("g", nil)[0].Points
	// Retention: nothing older than 12-10 = 2, everything since kept.
	if pts[0].T != 2 {
		t.Errorf("retention failed: first point at %v, want 2", pts[0].T)
	}
	if len(pts) != 41 { // 2.0 .. 12.0 inclusive at 0.25 steps
		t.Errorf("kept %d points, want 41", len(pts))
	}
	// Compact is idempotent for a fixed now.
	before := dbState(db)
	db.Compact(12)
	if dbState(db) != before {
		t.Error("Compact not idempotent")
	}
	// A fully-aged-out series disappears.
	db.AppendRef(db.Ref("dead", nil), 1, 1)
	db.Compact(50)
	if got := db.Select("dead", nil); len(got) != 0 {
		t.Errorf("dead series survived: %+v", got)
	}
}

// Compact walks the series only when a point can have expired. A DB
// compacted after every append must end up holding what one compacted
// once at the end holds, which is every point retention keeps: with
// series that end, start late, restart, or begin at a NaN time.
func TestCompactEveryAppendMatchesOnce(t *testing.T) {
	const end = 10.0
	live := map[string]func(at float64) bool{
		"steady":   func(float64) bool { return true },
		"ends":     func(at float64) bool { return at <= 3 },
		"starts":   func(at float64) bool { return at >= 4 },
		"restarts": func(at float64) bool { return at <= 1 || at >= 7 },
	}
	for _, retention := range []float64{0, 1, 2.5, 6, 100} {
		every, once, want := New(Options{Retention: retention}), New(Options{Retention: retention}), New(Options{})
		add := func(name string, at, v float64) {
			for _, db := range []*DB{every, once} {
				db.AppendRef(db.Ref(name, nil), at, v)
			}
			if retention == 0 || at >= end-retention {
				want.AppendRef(want.Ref(name, nil), at, v)
			}
		}
		add("nan", math.NaN(), -1)
		every.Compact(0)
		for i := 0; float64(i)*0.25 <= end; i++ {
			at := float64(i) * 0.25
			for name, on := range live {
				if on(at) {
					add(name, at, float64(i))
				}
			}
			add("nan", at, float64(i))
			every.Compact(at)
		}
		once.Compact(end)
		if got, w := dbState(every), dbState(once); got != w {
			t.Errorf("retention %v: compacted after every append:\n%s\ncompacted once:\n%s", retention, got, w)
		}
		if got, w := dbState(once), dbState(want); got != w {
			t.Errorf("retention %v: compacted once:\n%s\nwant:\n%s", retention, got, w)
		}
	}
}

func TestInstantSelectorLookback(t *testing.T) {
	db := New(Options{})
	db.AppendRef(db.Ref("m", nil), 5, 42)
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
		db.AppendRef(db.Ref("c", nil), float64(i), v)
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
	db.AppendRef(db.Ref("solo", nil), 4, 100)
	if v, _ := db.Query("increase(solo[1])", 4); len(v.(Vector)) != 0 {
		t.Errorf("single-point increase should drop the series: %+v", v)
	}
}

func TestOverTimeFunctions(t *testing.T) {
	db := New(Options{})
	for i, v := range []float64{1, 5, 3, 9} {
		db.AppendRef(db.Ref("g", nil), float64(i), v)
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
		db.AppendRef(db.Ref("lat_bucket", NewLabels(L("le", le))), 1, cum)
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
	db.AppendRef(db.Ref("o_bucket", NewLabels(L("le", "1"))), 1, 50)
	db.AppendRef(db.Ref("o_bucket", NewLabels(L("le", "+Inf"))), 1, 100)
	v, _ := db.Query("histogram_quantile(0.9, o_bucket)", 1)
	if got := v.(Vector)[0].V; got != 1 {
		t.Errorf("overflow quantile = %v, want lower bound 1", got)
	}
	// Groups split by non-le labels; empty groups are dropped.
	db.AppendRef(db.Ref("m_bucket", NewLabels(L("le", "1"), L("k", "a"))), 1, 10)
	db.AppendRef(db.Ref("m_bucket", NewLabels(L("le", "+Inf"), L("k", "a"))), 1, 10)
	db.AppendRef(db.Ref("m_bucket", NewLabels(L("le", "1"), L("k", "b"))), 1, 0)
	db.AppendRef(db.Ref("m_bucket", NewLabels(L("le", "+Inf"), L("k", "b"))), 1, 0)
	v, _ = db.Query("histogram_quantile(0.5, m_bucket)", 1)
	vec := v.(Vector)
	if len(vec) != 1 || vec[0].Labels.Get("k") != "a" {
		t.Errorf("grouping: %+v", vec)
	}
}

func TestBinaryOpsAndAggregation(t *testing.T) {
	db := New(Options{})
	db.AppendRef(db.Ref("a", NewLabels(L("k", "x"))), 1, 10)
	db.AppendRef(db.Ref("a", NewLabels(L("k", "y"))), 1, 20)
	db.AppendRef(db.Ref("b", NewLabels(L("k", "x"))), 1, 4)

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
	db.AppendRef(db.Ref("z", NewLabels(L("k", "x"))), 1, 0)
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

// A parsed number literal evaluates to the bits strconv.ParseFloat gives,
// negated once per leading minus, and so does a literal built by hand.
func TestNumberLiteralBits(t *testing.T) {
	db := New(Options{})
	for _, c := range []struct {
		src  string
		want float64
	}{
		{"0.95", 0.95}, {"0.1", 0.1}, {"1e-300", 1e-300}, {"1.7976931348623157e308", math.MaxFloat64},
		{"-0.25", -0.25}, {"-0", math.Copysign(0, -1)}, {"--3", 3}, {"0", 0},
	} {
		for i := 0; i < 2; i++ { // the second evaluation reads the same boxed value
			v, err := db.Query(c.src, 0)
			s, ok := v.(Scalar)
			if err != nil || !ok || math.Float64bits(float64(s)) != math.Float64bits(c.want) {
				t.Errorf("%q = %#v, %v; want Scalar(%v)", c.src, v, err, c.want)
			}
		}
	}
	v, err := db.Eval(NumberLit{V: -2.5}, 0)
	if s, ok := v.(Scalar); err != nil || !ok || math.Float64bits(float64(s)) != math.Float64bits(-2.5) {
		t.Errorf("NumberLit{V: -2.5} = %#v, %v; want Scalar(-2.5)", v, err)
	}
}

func TestFormatValueDeterministic(t *testing.T) {
	db := New(Options{})
	db.AppendRef(db.Ref("m", NewLabels(L("b", "2"))), 1, 1)
	db.AppendRef(db.Ref("m", NewLabels(L("a", "1"))), 1, 2)
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
	db.AppendRef(db.Ref("r", NewLabels(L("k", "v"))), 101, 30)
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

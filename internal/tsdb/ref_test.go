package tsdb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// signatureRef is Labels.Signature as it was before the strconv rewrite:
// one fmt.Fprintf("%s=%q") per label. Series keys and the DB's order
// depend on these bytes, so it is the reference the new code must match.
func signatureRef(ls Labels) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// histogramQuantileRef is histogramQuantile as it was before the group
// key moved into a reused buffer: a Without("le") copy and a reference
// signature per bucket sample, and plain slices instead of the pool.
func histogramQuantileRef(q float64, vec Vector) Vector {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	type group struct {
		labels Labels
		bounds []float64
		cums   []float64
	}
	groups := map[string]*group{}
	var order []string
	for _, s := range vec {
		le, ok := parseBound(s.Labels.Get("le"))
		if !ok {
			continue
		}
		rest := s.Labels.Without("le")
		key := signatureRef(rest)
		g, exists := groups[key]
		if !exists {
			g = &group{labels: rest}
			groups[key] = g
			order = append(order, key)
		}
		g.bounds = append(g.bounds, le)
		g.cums = append(g.cums, s.V)
	}
	sort.Strings(order)
	var out Vector
	for _, key := range order {
		g := groups[key]
		sort.Sort(&boundSort{g.bounds, g.cums})
		v, ok := quantileFromCumulative(q, g.bounds, g.cums)
		if !ok {
			continue
		}
		out = append(out, Sample{Labels: g.labels, V: v})
	}
	return out
}

// FuzzSignature checks Signature, and the signature minus `le` that
// histogramQuantile groups by, against the fmt reference for any two
// label pairs: quotes, backslashes, control bytes, non-ASCII, invalid
// UTF-8, duplicate keys, and values longer than the stack buffer.
func FuzzSignature(f *testing.F) {
	f.Add("k", "v", "k2", "v2")
	f.Add("le", "0.25", "svc", `a"b\c`)
	f.Add("le", "+Inf", "le", "1")
	f.Add("path", "\xff\xfe\x00\x7f", "code", "ü€ ")
	f.Add("", "", "x", "\t\n\r")
	f.Add("long", strings.Repeat(`"\`, 100), "a", strings.Repeat("\x80", 70))
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 string) {
		ls := NewLabels(L(k1, v1), L(k2, v2))
		if got, want := ls.Signature(), signatureRef(ls); got != want {
			t.Fatalf("Signature = %q, reference %q", got, want)
		}
		if got, want := string(ls.appendSignature(nil, "le")), signatureRef(ls.Without("le")); got != want {
			t.Fatalf("signature minus le = %q, reference %q", got, want)
		}
	})
}

func TestHistogramQuantileMatchesReference(t *testing.T) {
	same := func(name string, q float64, vec Vector) {
		t.Helper()
		got, want := histogramQuantile(q, vec), histogramQuantileRef(q, vec)
		if len(got) != len(want) {
			t.Fatalf("%s q=%v: %d samples, reference %d", name, q, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || signatureRef(got[i].Labels) != signatureRef(want[i].Labels) ||
				math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
				t.Fatalf("%s q=%v: sample %d = %v %v, reference %v %v",
					name, q, i, got[i].Labels, got[i].V, want[i].Labels, want[i].V)
			}
		}
	}
	bucket := func(v float64, pairs ...string) Sample {
		var ls []Label
		for i := 0; i < len(pairs); i += 2 {
			ls = append(ls, L(pairs[i], pairs[i+1]))
		}
		return Sample{Labels: NewLabels(ls...), V: v}
	}
	table := map[string]Vector{
		"empty": nil,
		"one group": {
			bucket(25, "le", "2.5"), bucket(50, "le", "5"), bucket(100, "le", "10"), bucket(100, "le", "+Inf"),
		},
		"unsorted, two groups, quoted values": {
			bucket(4, "le", "+Inf", "svc", `a"q`), bucket(1, "le", "0.1", "svc", `b\z`),
			bucket(3, "le", "1", "svc", `a"q`), bucket(2, "le", "+Inf", "svc", `b\z`),
			bucket(1, "le", "0.1", "svc", `a"q`),
		},
		"unparsable and duplicate bounds": {
			bucket(1, "le", "x"), bucket(2, "le", "1"), bucket(3, "le", "1.0"),
			bucket(5, "le", "Inf"), bucket(4, "le", "+Inf"), bucket(9),
		},
		"empty and falling counts": {
			bucket(0, "le", "1", "k", "a"), bucket(0, "le", "+Inf", "k", "a"),
			bucket(7, "le", "1", "k", "b"), bucket(3, "le", "2", "k", "b"), bucket(5, "le", "+Inf", "k", "b"),
		},
		"groups in reverse key order": {
			bucket(9, "le", "+Inf", "svc", "d"), bucket(4, "le", "1", "svc", "d"),
			bucket(2, "le", "1", "svc", "c"), bucket(6, "le", "+Inf", "svc", "c"),
			bucket(5, "le", "+Inf", "svc", "b"), bucket(5, "le", "0.5", "svc", "b"), bucket(1, "le", "0.1", "svc", "b"),
			bucket(3, "le", "+Inf", "svc", "a"), bucket(1, "le", "2", "svc", "a"),
		},
		"a silent group between two that yield": {
			bucket(0, "le", "+Inf", "svc", "b"), bucket(4, "le", "+Inf", "svc", "c"), bucket(8, "le", "+Inf", "svc", "a"),
			bucket(0, "le", "1", "svc", "b"), bucket(1, "le", "1", "svc", "c"), bucket(2, "le", "1", "svc", "a"),
		},
	}
	for name, vec := range table {
		for _, q := range []float64{-1, 0, 0.25, 0.5, 0.95, 1, 2, math.NaN(), math.Inf(1)} {
			same(name, q, vec)
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	bounds := []string{"0.1", "0.25", "0.5", "1", "1.0", "2", "10", "+Inf", "Inf", "nan", "x"}
	svcs := []string{"a", `a"q`, `b\z`, "ünï", "\xff", strings.Repeat("long", 40)}
	for i := 0; i < 500; i++ {
		var vec Vector
		for n := rng.IntN(40); n > 0; n-- {
			v := float64(rng.IntN(20))
			if rng.IntN(10) == 0 {
				v = rng.Float64() * 1e6
			}
			vec = append(vec, bucket(v,
				"le", bounds[rng.IntN(len(bounds))],
				"svc", svcs[rng.IntN(len(svcs))],
				"code", fmt.Sprint(200+100*rng.IntN(4))))
		}
		same(fmt.Sprintf("random set %d", i), rng.Float64()*1.2-0.1, vec)
	}
}

// TestHistogramQuantileAllocsFlat is the allocation contract of quantile
// grouping: an evaluation over 64 buckets per group allocates what one
// over 4 buckets does.
func TestHistogramQuantileAllocsFlat(t *testing.T) {
	vec := func(buckets int) Vector {
		var out Vector
		for _, svc := range []string{"a", "b"} {
			for i := 0; i < buckets; i++ {
				le := "+Inf"
				if i < buckets-1 {
					le = formatBound(0.25 * float64(i+1))
				}
				out = append(out, Sample{Labels: NewLabels(L("le", le), L("svc", svc)), V: float64(i)})
			}
		}
		return out
	}
	few, many := quantileAllocs(vec(4)), quantileAllocs(vec(64))
	if many > few {
		t.Errorf("histogram_quantile allocates %v over 64 buckets per group, %v over 4: want no growth", many, few)
	}
}

// With a warm pool, histogram_quantile allocates only its result: eight
// groups that yield nothing allocate nothing, and eight of which one
// yields a sample allocate that sample's vector and labels.
func TestHistogramQuantileAllocatesOnlyItsResult(t *testing.T) {
	vec := func(yielding string) Vector {
		var out Vector
		for _, le := range []string{"0.5", "1", "+Inf"} {
			for _, svc := range []string{"h", "g", "f", "e", "d", "c", "b", "a"} {
				v := 0.0
				if svc == yielding {
					v = 4
				}
				out = append(out, Sample{Labels: NewLabels(L("le", le), L("svc", svc)), V: v})
			}
		}
		return out
	}
	if got := quantileAllocs(vec("")); got != 0 {
		t.Errorf("eight silent groups: %v allocs, want 0", got)
	}
	if got := quantileAllocs(vec("e")); got > 2 {
		t.Errorf("eight groups, one yielding: %v allocs, want <= 2 (the vector and its labels)", got)
	}
}

// quantileAllocs returns the fewest allocations of one histogram_quantile
// evaluation of v after a warm-up. The fewest over many single runs
// leaves out the pool misses that the race detector makes random.
func quantileAllocs(v Vector) float64 {
	histogramQuantile(0.95, v)
	n := math.Inf(1)
	for i := 0; i < 50; i++ {
		n = min(n, testing.AllocsPerRun(1, func() { histogramQuantile(0.95, v) }))
	}
	return n
}

package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split(1)
	before := *parent
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	if *parent != before {
		t.Fatal("advancing child mutated parent state")
	}
	// Distinct labels produce distinct streams.
	c1, c2 := NewRNG(7).Split(1), NewRNG(7).Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children with different labels produced identical first draw")
	}
}

// TestSplitContract pins the derivation contract the sharded simulation
// core builds on (seed → block → student → stream): Split is a pure
// function of (parent state, label), so splitting the same label twice
// yields identical children, and deriving any number of children leaves
// the parent's own stream untouched.
func TestSplitContract(t *testing.T) {
	parent := NewRNG(99)
	before := *parent
	a := parent.Split(42)
	for i := uint64(0); i < 1000; i++ {
		parent.Split(i) // derivation itself must not advance the parent
	}
	b := parent.Split(42)
	if *parent != before {
		t.Fatal("Split advanced the parent state")
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-label children diverged at draw %d", i)
		}
	}
	// After the parent consumes its own stream, the same label derives a
	// different child: a split child is pinned to the parent state at
	// derivation time, not to the seed.
	parent.Uint64()
	c := parent.Split(42)
	d := NewRNG(99).Split(42)
	if c.Uint64() == d.Uint64() {
		t.Fatal("child ignores parent state")
	}
}

// TestSplitNoEscapeAllocs pins Split under the inlining budget: a child
// that never leaves its caller must live on the stack. The sharded core
// derives several children per student and relies on this.
func TestSplitNoEscapeAllocs(t *testing.T) {
	parent := NewRNG(7)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		sink += parent.Split(3).Split(sink).Uint64()
	})
	if allocs != 0 {
		t.Errorf("Split of a non-escaping child allocates %v objects, want 0", allocs)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestLogNormalMeanMatches(t *testing.T) {
	r := NewRNG(13)
	const want = 40.0
	n := 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormalMean(want, 1.2)
	}
	got := sum / float64(n)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("lognormal mean %v, want ~%v", got, want)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(17)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(5)
	}
	got := sum / float64(n)
	if math.Abs(got-5)/5 > 0.03 {
		t.Errorf("exponential mean %v, want ~5", got)
	}
}

func TestTriangularBounds(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 10000; i++ {
		x := r.Triangular(2, 3, 10)
		if x < 2 || x > 10 {
			t.Fatalf("triangular out of bounds: %v", x)
		}
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := NewRNG(23)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Errorf("weighted choice counts not ordered: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.02 {
		t.Errorf("weight-7 fraction %v, want ~0.7", frac)
	}
}

func TestChoicePanicsOnZeroWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	NewRNG(1).Choice([]float64{0, 0})
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Sum != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Percentile(sorted, 50); got != 25 {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := Percentile(sorted, 0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	if got := Percentile(sorted, 100); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAbove(xs, 2); got != 0.5 {
		t.Errorf("FractionAbove = %v, want 0.5", got)
	}
	if got := FractionAbove(nil, 0); got != 0 {
		t.Errorf("FractionAbove(nil) = %v, want 0", got)
	}
}

func TestHistogramCountsPreserved(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1000))
			}
		}
		counts, _ := Histogram(xs, 7, -1000, 1000)
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(xs, xs); d > 1e-12 {
		t.Errorf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSDetectsShift(t *testing.T) {
	r := NewRNG(31)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	c := make([]float64, 2000)
	for i := range a {
		a[i] = r.Normal()
		b[i] = r.Normal()
		c[i] = r.Normal() + 1.0
	}
	dSame := KSStatistic(a, b)
	dShift := KSStatistic(a, c)
	if dShift < 3*dSame {
		t.Errorf("shifted KS %v not clearly above same-dist KS %v", dShift, dSame)
	}
	if p := KSPValue(dShift, len(a), len(c)); p > 0.001 {
		t.Errorf("p-value for clear shift = %v, want < 0.001", p)
	}
	if p := KSPValue(dSame, len(a), len(b)); p < 0.01 {
		t.Errorf("p-value for same distribution = %v, suspiciously small", p)
	}
}

func TestKSStatisticRange(t *testing.T) {
	f := func(a, b []float64) bool {
		fa := make([]float64, 0, len(a))
		for _, v := range a {
			if !math.IsNaN(v) {
				fa = append(fa, v)
			}
		}
		fb := make([]float64, 0, len(b))
		for _, v := range b {
			if !math.IsNaN(v) {
				fb = append(fb, v)
			}
		}
		d := KSStatistic(fa, fb)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPSIStableVsShifted(t *testing.T) {
	r := NewRNG(37)
	ref := make([]float64, 5000)
	same := make([]float64, 5000)
	shifted := make([]float64, 5000)
	for i := range ref {
		ref[i] = r.Normal()
		same[i] = r.Normal()
		shifted[i] = r.Normal()*1.5 + 2
	}
	if psi := PSI(ref, same, 10); psi > 0.1 {
		t.Errorf("PSI for same distribution = %v, want < 0.1", psi)
	}
	if psi := PSI(ref, shifted, 10); psi < 0.25 {
		t.Errorf("PSI for major shift = %v, want > 0.25", psi)
	}
}

func TestASCIIHistogramRenders(t *testing.T) {
	out := ASCIIHistogram([]float64{1, 1, 2, 3, 10}, 3, 20, func(e float64) string {
		return "x"
	})
	if out == "" || out == "(empty)\n" {
		t.Errorf("unexpected histogram output: %q", out)
	}
	if ASCIIHistogram(nil, 3, 20, nil) != "(empty)\n" {
		t.Error("empty input should render placeholder")
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkLogNormal(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.LogNormalMean(40, 1.2)
	}
}

func BenchmarkKSStatistic(b *testing.B) {
	r := NewRNG(1)
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Normal()
		ys[i] = r.Normal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSStatistic(xs, ys)
	}
}

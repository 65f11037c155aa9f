package stats

import (
	"math"
	"testing"
)

// TestAccMergePartitionInvariant is the core sharding property: any
// partition of the same observations merges to bit-identical state.
func TestAccMergePartitionInvariant(t *testing.T) {
	rng := NewRNG(42)
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.LogNormalMean(100, 1.5)
	}
	var whole Acc
	for _, x := range xs {
		whole.Add(x)
	}
	for _, shard := range []int{1, 3, 7, 64, 4096} {
		parts := make([]Acc, 0, len(xs)/shard+1)
		for lo := 0; lo < len(xs); lo += shard {
			hi := lo + shard
			if hi > len(xs) {
				hi = len(xs)
			}
			var a Acc
			for _, x := range xs[lo:hi] {
				a.Add(x)
			}
			parts = append(parts, a)
		}
		// Merge in reverse order too: order must not matter.
		var fwd, rev Acc
		for i := range parts {
			fwd.Merge(parts[i])
			rev.Merge(parts[len(parts)-1-i])
		}
		for _, got := range []Acc{fwd, rev} {
			if got != whole {
				t.Fatalf("shard size %d: merged %+v != whole %+v", shard, got, whole)
			}
		}
	}
}

func TestAccBasics(t *testing.T) {
	var a Acc
	if a.N != 0 || a.SumMicro != 0 {
		t.Fatal("zero Acc not empty")
	}
	a.Add(1.5)
	a.Add(-2.25)
	a.Add(10)
	if a.N != 3 {
		t.Fatalf("N = %d", a.N)
	}
	if a.SumMicro != 9_250_000 {
		t.Fatalf("SumMicro = %v", a.SumMicro)
	}
	if a.MinV != -2.25 || a.MaxV != 10 {
		t.Fatalf("min/max = %v/%v", a.MinV, a.MaxV)
	}
}

func TestFormatMicro(t *testing.T) {
	cases := []struct {
		micro    int64
		decimals int
		want     string
	}{
		{1_500_000, 0, "2"}, // round half away from zero
		{1_499_999, 0, "1"},
		{1_500_000, 2, "1.50"},
		{1_234_567, 6, "1.234567"},
		{-1_500_000, 2, "-1.50"},
		{-400_000, 0, "0"}, // -0.4 rounds to 0, no sign
		{0, 3, "0.000"},
		{123_456_789_000, 1, "123456.8"},
	}
	for _, c := range cases {
		if got := FormatMicro(c.micro, c.decimals); got != c.want {
			t.Errorf("FormatMicro(%d, %d) = %q, want %q", c.micro, c.decimals, got, c.want)
		}
	}
}

func TestHistMergeAndQuantile(t *testing.T) {
	mk := func() *Hist { return NewHist(1, math.Sqrt2, 40) }
	rng := NewRNG(7)
	whole := mk()
	a, b := mk(), mk()
	for i := 0; i < 20_000; i++ {
		x := rng.LogNormalMean(120, 1.2)
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() || a.Under != whole.Under {
		t.Fatalf("merged N %d/under %d != whole %d/%d", a.N(), a.Under, whole.N(), whole.Under)
	}
	for i := range whole.Counts {
		if a.Counts[i] != whole.Counts[i] {
			t.Fatalf("bucket %d: merged %d != whole %d", i, a.Counts[i], whole.Counts[i])
		}
	}
	// Quantiles come back monotone and in a plausible range for the
	// distribution (mean 120).
	q50, q90, q99 := whole.Quantile(0.5), whole.Quantile(0.9), whole.Quantile(0.99)
	if !(q50 <= q90 && q90 <= q99) {
		t.Fatalf("quantiles not monotone: %v %v %v", q50, q90, q99)
	}
	if q50 < 20 || q50 > 300 {
		t.Fatalf("median %v implausible for lognormal mean 120", q50)
	}
}

func TestHistUnderAndSaturation(t *testing.T) {
	h := NewHist(1, 2, 4) // buckets [1,2) [2,4) [4,8) [8,16)+
	for _, x := range []float64{0.5, 0.99, 1, 3, 1e9} {
		h.Add(x)
	}
	if h.Under != 2 {
		t.Fatalf("Under = %d, want 2", h.Under)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[3] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

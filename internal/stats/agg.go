package stats

import (
	"fmt"
	"math"
	"strings"
)

// Streaming mergeable aggregates for sharded simulation runs.
//
// The sharded core needs per-shard partial results that (a) stay O(1) in
// the population size and (b) merge to the same bytes no matter how the
// population was partitioned or which worker finished first. Floating-
// point addition is not associative, so sums are accumulated in integer
// micro-units (1e-6): integer addition is associative and commutative,
// which makes the merged totals bit-identical for every shard size,
// worker count, and merge order. Min/max and bucket counts are exact
// under reordering already.

// MicroPerUnit is the fixed-point resolution of Acc sums: one micro-unit
// is 1e-6 of the accumulated quantity (an instance-microhour, a
// micro-dollar, ...).
const MicroPerUnit = 1e6

// Micro converts a value to integer micro-units, rounding half away from
// zero. Quantities up to ~9.2e12 units are exactly representable.
func Micro(x float64) int64 {
	return int64(math.Round(x * MicroPerUnit))
}

// FormatMicro renders a micro-unit value with the given number of
// decimal places (0..6), rounding half away from zero. It uses integer
// arithmetic only, so the rendered bytes are identical on every platform
// and for every accumulation order.
func FormatMicro(m int64, decimals int) string {
	if decimals < 0 {
		decimals = 0
	}
	if decimals > 6 {
		decimals = 6
	}
	neg := m < 0
	if neg {
		m = -m
	}
	scale := int64(1)
	for i := 0; i < 6-decimals; i++ {
		scale *= 10
	}
	m = (m + scale/2) / scale // now in units of 10^-decimals
	pow := int64(1)
	for i := 0; i < decimals; i++ {
		pow *= 10
	}
	var b strings.Builder
	if neg && m != 0 {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, "%d", m/pow)
	if decimals > 0 {
		fmt.Fprintf(&b, ".%0*d", decimals, m%pow)
	}
	return b.String()
}

// Acc is a mergeable streaming accumulator: count, fixed-point sum, and
// exact min/max. The zero value is an empty accumulator.
type Acc struct {
	N        int64
	SumMicro int64
	MinV     float64
	MaxV     float64
}

// Add folds one observation in.
func (a *Acc) Add(x float64) {
	if a.N == 0 || x < a.MinV {
		a.MinV = x
	}
	if a.N == 0 || x > a.MaxV {
		a.MaxV = x
	}
	a.N++
	a.SumMicro += Micro(x)
}

// Merge folds another accumulator in. Because sums are integral and
// min/max are idempotent, Merge is associative and commutative: any
// partition of the same observations merges to identical state.
func (a *Acc) Merge(b Acc) {
	if b.N == 0 {
		return
	}
	if a.N == 0 || b.MinV < a.MinV {
		a.MinV = b.MinV
	}
	if a.N == 0 || b.MaxV > a.MaxV {
		a.MaxV = b.MaxV
	}
	a.N += b.N
	a.SumMicro += b.SumMicro
}

// Hist is a mergeable fixed-shape histogram with geometrically spaced
// buckets: bucket i covers [Lo*Ratio^i, Lo*Ratio^(i+1)). Observations
// below Lo land in Under; observations at or above the top edge saturate
// into the last bucket. Counts are integers, so merges commute.
type Hist struct {
	Lo     float64
	Ratio  float64
	Counts []int64
	Under  int64
}

// NewHist returns an empty histogram with the given shape. It panics on
// a non-positive lower edge, a ratio <= 1, or no buckets: those are
// construction bugs, not data conditions.
func NewHist(lo, ratio float64, buckets int) *Hist {
	if lo <= 0 || ratio <= 1 || buckets <= 0 {
		panic("stats: NewHist with invalid shape")
	}
	return &Hist{Lo: lo, Ratio: ratio, Counts: make([]int64, buckets)}
}

// Add folds one observation in.
func (h *Hist) Add(x float64) {
	if x < h.Lo {
		h.Under++
		return
	}
	i := int(math.Log(x/h.Lo) / math.Log(h.Ratio))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Merge folds another histogram in. It panics if the shapes differ —
// merging differently bucketed histograms is always a programming error.
func (h *Hist) Merge(b *Hist) {
	if b == nil {
		return
	}
	if h.Lo != b.Lo || h.Ratio != b.Ratio || len(h.Counts) != len(b.Counts) {
		panic("stats: Hist.Merge with mismatched shape")
	}
	h.Under += b.Under
	for i, c := range b.Counts {
		h.Counts[i] += c
	}
}

// N returns the total observation count.
func (h *Hist) N() int64 {
	n := h.Under
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Edge returns the lower edge of bucket i (i may equal len(Counts) for
// the top edge).
func (h *Hist) Edge(i int) float64 {
	return h.Lo * math.Pow(h.Ratio, float64(i))
}

// Quantile returns the geometric midpoint of the bucket holding the
// q-th quantile (0 < q <= 1). Under-range observations report as Lo.
func (h *Hist) Quantile(q float64) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	cum := h.Under
	if rank <= cum {
		return h.Lo
	}
	for i, c := range h.Counts {
		cum += c
		if rank <= cum {
			return h.Edge(i) * math.Sqrt(h.Ratio)
		}
	}
	return h.Edge(len(h.Counts)) // unreachable for q <= 1
}

package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics for a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Sum    float64
	Median float64
	P25    float64
	P75    float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes descriptive statistics for xs. An empty sample yields
// a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Percentile(sorted, 50)
	s.P25 = Percentile(sorted, 25)
	s.P75 = Percentile(sorted, 75)
	s.P90 = Percentile(sorted, 90)
	s.P95 = Percentile(sorted, 95)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (0–100) of an already-sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FractionAbove returns the fraction of xs strictly greater than threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Histogram bins xs into nbins equal-width bins over [min, max] and
// returns the bin counts alongside the bin edges (len edges = nbins+1).
func Histogram(xs []float64, nbins int, min, max float64) (counts []int, edges []float64) {
	if nbins <= 0 {
		nbins = 1
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	width := (max - min) / float64(nbins)
	for i := range edges {
		edges[i] = min + float64(i)*width
	}
	if width <= 0 {
		counts[0] = len(xs)
		return counts, edges
	}
	for _, x := range xs {
		b := int((x - min) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts, edges
}

// String renders the summary on one line for logs and test failures.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f sum=%.1f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P90, s.P99, s.Max, s.Sum)
}

// ASCIIHistogram renders a horizontal-bar histogram of xs with nbins bins;
// width is the maximum bar width in characters. Used by the report
// package and cmd/coursesim for Fig-2-style distribution plots.
func ASCIIHistogram(xs []float64, nbins, width int, format func(edge float64) string) string {
	if len(xs) == 0 {
		return "(empty)\n"
	}
	s := Summarize(xs)
	counts, edges := Histogram(xs, nbins, s.Min, s.Max)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%12s - %-12s |%s %d\n",
			format(edges[i]), format(edges[i+1]), strings.Repeat("#", bar), c)
	}
	return b.String()
}

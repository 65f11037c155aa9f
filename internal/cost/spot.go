package cost

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Spot-market pricing. A spot pool's price is a piecewise-constant
// function of virtual time, generated once from a seed before the
// simulation starts and then never mutated, so pricing an interval is a
// pure function: the same meter record prices to the same cents on every
// run, which the spot scorecard's reconcile-to-the-cent check relies on.

// SpotSegment is one constant-price stretch of a spot series. Segments
// are half-open [Start, next.Start); the last segment extends forever.
type SpotSegment struct {
	Start   float64 // simulated hours, inclusive
	PerHour float64 // $/instance-hour, rounded to whole cents
}

// SpotPriceSeries is the full price history of one spot pool plus the
// on-demand rate it discounts. The zero value (no segments) prices
// everything at zero; real series come from GenerateSpotPrices or are
// hand-written in tests.
type SpotPriceSeries struct {
	OnDemandPerHour float64
	Segments        []SpotSegment // sorted by Start; first Start is 0
}

// RateAt returns the $/hour in force at time t (the last segment whose
// Start is <= t; the first segment's price before its Start).
func (s SpotPriceSeries) RateAt(t float64) float64 {
	if len(s.Segments) == 0 {
		return 0
	}
	// Find the first segment starting after t; the one before it rules.
	i := sort.Search(len(s.Segments), func(i int) bool { return s.Segments[i].Start > t })
	if i == 0 {
		return s.Segments[0].PerHour
	}
	return s.Segments[i-1].PerHour
}

// Cents integrates the series over [start, end) hours and rounds once to
// whole cents. Rounding happens here — at the usage-record level — not
// per segment, so a bill assembled record-by-record sums exactly to the
// same total every run.
func (s SpotPriceSeries) Cents(start, end float64) int64 {
	if end <= start || len(s.Segments) == 0 {
		return 0
	}
	var dollars float64
	for i, seg := range s.Segments {
		segEnd := math.Inf(1)
		if i+1 < len(s.Segments) {
			segEnd = s.Segments[i+1].Start
		}
		lo := math.Max(start, seg.Start)
		if i == 0 {
			lo = start // the first price also covers anything before its Start
		}
		hi := math.Min(end, segEnd)
		if hi > lo {
			dollars += seg.PerHour * (hi - lo)
		}
		if segEnd >= end {
			break
		}
	}
	return CentsOf(dollars)
}

// OnDemandCents prices the same interval at the pool's on-demand rate —
// the baseline a spot bill is compared against.
func (s SpotPriceSeries) OnDemandCents(start, end float64) int64 {
	if end <= start {
		return 0
	}
	return CentsOf(s.OnDemandPerHour * (end - start))
}

// CentsOf rounds a dollar amount to integer cents (half away from zero).
func CentsOf(dollars float64) int64 {
	return int64(math.Round(dollars * 100))
}

// FormatCents renders integer cents as "$12.34" (with a sign for
// negative amounts).
func FormatCents(c int64) string {
	sign := ""
	if c < 0 {
		sign = "-"
		c = -c
	}
	return fmt.Sprintf("%s$%d.%02d", sign, c/100, c%100)
}

// The spot walk's fixed shape, as fractions of the on-demand rate: the
// log-price reverts toward spotMean and never leaves [spotFloor,
// spotCeil], so spot never exceeds on-demand. Prices update every
// spotStepHours.
const (
	spotMean      = 0.35
	spotFloor     = 0.1
	spotCeil      = 1.0
	spotStepHours = 1.0
)

// SpotSpec parameterises GenerateSpotPrices.
type SpotSpec struct {
	OnDemandPerHour float64
	// Volatility is the per-step standard deviation of the log-price
	// random walk. Zero produces a single flat segment — and therefore
	// zero price-change clock events when the series is armed.
	Volatility float64
	// Horizon bounds generated segments to [0, Horizon).
	Horizon float64
}

// GenerateSpotPrices builds a seeded, mean-reverting spot price walk:
// log-price takes a Normal step each spotStepHours and relaxes a quarter
// of the way back toward the mean, clamped to [spotFloor, spotCeil] and
// rounded to whole cents. Consecutive equal prices coalesce into one
// segment, so a calm market arms few clock events. Same seed + spec ⇒
// identical series.
func GenerateSpotPrices(seed uint64, spec SpotSpec) SpotPriceSeries {
	s := SpotPriceSeries{OnDemandPerHour: spec.OnDemandPerHour}
	rate := func(frac float64) float64 {
		return math.Round(spec.OnDemandPerHour*frac*100) / 100
	}
	if spec.Volatility <= 0 || spec.Horizon <= spotStepHours {
		s.Segments = []SpotSegment{{Start: 0, PerHour: rate(spotMean)}}
		return s
	}
	r := stats.NewRNG(seed)
	logMean := math.Log(spotMean)
	x := logMean
	push := func(start, perHour float64) {
		if n := len(s.Segments); n > 0 && s.Segments[n-1].PerHour == perHour {
			return // coalesce equal consecutive prices
		}
		s.Segments = append(s.Segments, SpotSegment{Start: start, PerHour: perHour})
	}
	push(0, rate(math.Exp(x)))
	for t := spotStepHours; t < spec.Horizon; t += spotStepHours {
		x += 0.25*(logMean-x) + spec.Volatility*r.Normal()
		frac := math.Exp(x)
		if frac < spotFloor {
			frac = spotFloor
			x = math.Log(frac)
		}
		if frac > spotCeil {
			frac = spotCeil
			x = math.Log(frac)
		}
		push(t, rate(frac))
	}
	return s
}

package cost

import (
	"math"
	"reflect"
	"testing"
)

func TestSpotSeriesRateAtAndCents(t *testing.T) {
	s := SpotPriceSeries{
		OnDemandPerHour: 2,
		Segments: []SpotSegment{
			{Start: 0, PerHour: 1.00},
			{Start: 1, PerHour: 0.50},
			{Start: 3, PerHour: 2.00},
		},
	}
	for _, tc := range []struct {
		t    float64
		want float64
	}{{0, 1}, {0.5, 1}, {1, 0.5}, {2.9, 0.5}, {3, 2}, {100, 2}} {
		if got := s.RateAt(tc.t); got != tc.want {
			t.Fatalf("RateAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if got := s.Cents(0, 2); got != 150 {
		t.Fatalf("Cents(0,2) = %d, want 150", got)
	}
	if got := s.Cents(0.5, 1.5); got != 75 {
		t.Fatalf("Cents(0.5,1.5) = %d, want 75", got)
	}
	if got := s.Cents(2, 5); got != 450 { // 1h@0.50 + 2h@2.00
		t.Fatalf("Cents(2,5) = %d, want 450", got)
	}
	if got := s.Cents(1, 1); got != 0 {
		t.Fatalf("empty interval should be free, got %d", got)
	}
	if got := s.OnDemandCents(0, 2.5); got != 500 {
		t.Fatalf("OnDemandCents(0,2.5) = %d, want 500", got)
	}
	if got := (SpotPriceSeries{}).Cents(0, 10); got != 0 {
		t.Fatalf("zero series should price to 0, got %d", got)
	}
}

func TestFormatCents(t *testing.T) {
	for _, tc := range []struct {
		c    int64
		want string
	}{{0, "$0.00"}, {5, "$0.05"}, {1234, "$12.34"}, {-307, "-$3.07"}} {
		if got := FormatCents(tc.c); got != tc.want {
			t.Fatalf("FormatCents(%d) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestGenerateSpotPricesDeterministicAndBounded(t *testing.T) {
	spec := SpotSpec{OnDemandPerHour: 3.307, Volatility: 0.2, Horizon: 96}
	a := GenerateSpotPrices(7, spec)
	b := GenerateSpotPrices(7, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate identical series")
	}
	c := GenerateSpotPrices(8, spec)
	if reflect.DeepEqual(a.Segments, c.Segments) {
		t.Fatal("different seeds should generate different walks")
	}
	if len(a.Segments) < 2 {
		t.Fatalf("volatile walk should change price at least once, got %d segments", len(a.Segments))
	}
	lo, hi := spotFloor*spec.OnDemandPerHour, spotCeil*spec.OnDemandPerHour
	var prev SpotSegment
	for i, seg := range a.Segments {
		if seg.PerHour < lo-0.005 || seg.PerHour > hi+0.005 {
			t.Fatalf("segment %d price %v outside [%v, %v]", i, seg.PerHour, lo, hi)
		}
		if cents := seg.PerHour * 100; math.Abs(cents-math.Round(cents)) > 1e-6 {
			t.Fatalf("segment %d price %v not whole cents", i, seg.PerHour)
		}
		if i > 0 {
			if seg.Start <= prev.Start {
				t.Fatalf("segments not strictly increasing: %v after %v", seg.Start, prev.Start)
			}
			if seg.PerHour == prev.PerHour {
				t.Fatalf("equal consecutive prices not coalesced at segment %d", i)
			}
		}
		prev = seg
	}
}

func TestGenerateSpotPricesZeroVolatilityIsFlat(t *testing.T) {
	s := GenerateSpotPrices(1, SpotSpec{OnDemandPerHour: 1.212, Horizon: 48})
	if len(s.Segments) != 1 {
		t.Fatalf("zero volatility must produce one segment, got %d", len(s.Segments))
	}
	if got := s.Segments[0].PerHour; got != 0.42 {
		t.Fatalf("flat rate = %v, want 0.42", got)
	}
}

// yearWalk is a year-long (8,760 h) seeded price walk: the per-pool
// series a large simulated site generates once and bills against.
var yearWalk = SpotSpec{OnDemandPerHour: 1.212, Volatility: 0.25, Horizon: 8760}

// TestSpotCentsAllocs pins billing one metered interval against the
// year-long walk to zero allocations.
func TestSpotCentsAllocs(t *testing.T) {
	s := GenerateSpotPrices(42, yearWalk)
	var total int64
	if got := testing.AllocsPerRun(100, func() { total += s.Cents(100.25, 8000.75) }); got != 0 {
		t.Errorf("Cents over %d segments allocates %v per call, want 0", len(s.Segments), got)
	}
	if total == 0 {
		t.Error("priced nothing")
	}
}

// BenchmarkSpotPriceGen measures generating the year-long walk, the
// setup cost a site pays once per pool.
func BenchmarkSpotPriceGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(GenerateSpotPrices(42, yearWalk).Segments) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkSpotBillCents measures pricing one metered interval against
// the walk, the per-record cost of the billing scorecard.
func BenchmarkSpotBillCents(b *testing.B) {
	s := GenerateSpotPrices(42, yearWalk)
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total += s.Cents(100.25, 8000.75)
	}
	if total == 0 {
		b.Fatal("priced nothing")
	}
}

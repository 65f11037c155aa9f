package tsdb

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// scrapeFixture is a realistically populated bus — 20 labeled counters
// and gauges and five 64-observation histograms, about a hundred series
// — wired to a collector that compacts on every scrape. step(i) is one
// scrape at the i-th interval; with churn set, every counter and every
// histogram changes first, so the delta path can replay nothing and
// re-reads all bucket arrays.
func scrapeFixture(delta, churn bool) (step func(i int)) {
	bus := telemetry.New()
	ctrs := make([]*telemetry.Counter, 20)
	hists := make([]*telemetry.Histogram, 5)
	for i := range ctrs {
		shard := telemetry.String("shard", fmt.Sprintf("s%02d", i))
		ctrs[i] = bus.Counter(telemetry.Labeled("bench.ops", shard))
		ctrs[i].Add(int64(i + 1))
		bus.Gauge(telemetry.Labeled("bench.depth", shard)).Set(float64(i))
	}
	for i := range hists {
		hists[i] = bus.Histogram(fmt.Sprintf("bench.lat_%d", i), telemetry.LatencyBuckets())
		for j := 0; j < 64; j++ {
			hists[i].Observe(0.001 * float64(j+1))
		}
	}
	coll := NewCollector(New(Options{Retention: 24}), bus, 0.25)
	coll.SetDelta(delta)
	return func(i int) {
		if churn {
			for _, c := range ctrs {
				c.Inc()
			}
			for _, h := range hists {
				h.Observe(0.001 * float64(i%64+1))
			}
		}
		coll.Scrape(0.25 * float64(i+1))
	}
}

// queryFixture holds 8 labeled counter series of 512 points each, and
// the time of their last point.
func queryFixture() (*DB, float64) {
	db := New(Options{})
	const shards, points = 8, 512
	for s := 0; s < shards; s++ {
		labels := Labels{L("shard", fmt.Sprintf("s%d", s))}
		for i := 0; i < points; i++ {
			db.AppendRef(db.Ref("bench.ops", labels), 0.25*float64(i+1), float64(i*(s+1)))
		}
	}
	return db, 0.25 * points
}

// benchScrape measures one scrape of the fixture bus into the TSDB,
// including the retention compaction the collector performs on every
// scrape.
func benchScrape(b *testing.B, delta, churn bool) {
	step := scrapeFixture(delta, churn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

func BenchmarkCollectorScrape(b *testing.B) { benchScrape(b, true, false) }

// BenchmarkCollectorScrapeFull takes the full-snapshot fallback
// (SetDelta(false)): the Bus.SnapshotAppend route that the delta path
// must stay byte-identical with.
func BenchmarkCollectorScrapeFull(b *testing.B) { benchScrape(b, false, false) }

// BenchmarkCollectorScrapeChurn is the delta path's worst case.
func BenchmarkCollectorScrapeChurn(b *testing.B) { benchScrape(b, true, true) }

// BenchmarkQueryRate measures the query the dashboard leans on hardest:
// rate() over a 2h range selector across labeled counter series.
func BenchmarkQueryRate(b *testing.B) {
	db, now := queryFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("rate(bench.ops[2h])", now); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScrapeAllocs pins the zero-alloc scrape contract (DESIGN §14) on
// all three paths: once plans are built and the store has filled its
// 24 h retention, a scrape allocates at most 2 objects.
func TestScrapeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		delta, churn bool
	}{
		{"delta", true, false},
		{"full", false, false},
		{"churn", true, true},
	} {
		step := scrapeFixture(tc.delta, tc.churn)
		i := 0
		for ; i < 200; i++ {
			step(i)
		}
		allocs := testing.AllocsPerRun(200, func() { step(i); i++ })
		if allocs > 2 {
			t.Errorf("%s scrape allocates %v per call, want <= 2", tc.name, allocs)
		}
	}
}

// TestQueryRateAllocs pins the rate query to at most 16 allocations.
func TestQueryRateAllocs(t *testing.T) {
	db, now := queryFixture()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Query("rate(bench.ops[2h])", now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("rate(bench.ops[2h]) allocates %v per query, want <= 16", allocs)
	}
}

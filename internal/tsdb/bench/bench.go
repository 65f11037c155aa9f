// Package bench holds the TSDB benchmark bodies shared by the `go test
// -bench` wrappers and cmd/tsdbbench (which runs them via
// testing.Benchmark and writes BENCH_tsdb.json). Keeping the bodies in a
// plain package means both entry points measure exactly the same code.
package bench

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// CollectorScrape measures one full scrape of a realistically populated
// bus (labeled counters, gauges, and histograms — about a hundred
// series) into the TSDB, including the retention compaction the
// collector performs on every scrape.
func CollectorScrape(b *testing.B) {
	bus := telemetry.New()
	for i := 0; i < 20; i++ {
		shard := telemetry.String("shard", fmt.Sprintf("s%02d", i))
		bus.Counter(telemetry.Labeled("bench.ops", shard)).Add(int64(i + 1))
		bus.Gauge(telemetry.Labeled("bench.depth", shard)).Set(float64(i))
	}
	for i := 0; i < 5; i++ {
		h := bus.Histogram(fmt.Sprintf("bench.lat_%d", i), telemetry.LatencyBuckets())
		for j := 0; j < 64; j++ {
			h.Observe(0.001 * float64(j+1))
		}
	}
	coll := tsdb.NewCollector(tsdb.New(tsdb.Options{
		Retention: 24, RawWindow: 6, DownsampleStep: 0.25,
	}), bus, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll.Scrape(0.25 * float64(i+1))
	}
}

// QueryRate measures the query path the dashboard leans on hardest:
// rate() over a 2h range selector across labeled counter series.
func QueryRate(b *testing.B) {
	db := tsdb.New(tsdb.Options{})
	const shards, points = 8, 512
	for s := 0; s < shards; s++ {
		labels := tsdb.Labels{tsdb.L("shard", fmt.Sprintf("s%d", s))}
		for i := 0; i < points; i++ {
			db.Append("bench.ops", labels, 0.25*float64(i+1), float64(i*(s+1)))
		}
	}
	now := 0.25 * points
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("rate(bench.ops[2h])", now); err != nil {
			b.Fatal(err)
		}
	}
}

// CollectorScrapeFull measures the same scrape as CollectorScrape but
// through the full-snapshot fallback path (SetDelta(false)) — the
// pooled Bus.SnapshotAppend route that the delta path must stay
// byte-identical with.
func CollectorScrapeFull(b *testing.B) {
	bus := telemetry.New()
	for i := 0; i < 20; i++ {
		shard := telemetry.String("shard", fmt.Sprintf("s%02d", i))
		bus.Counter(telemetry.Labeled("bench.ops", shard)).Add(int64(i + 1))
		bus.Gauge(telemetry.Labeled("bench.depth", shard)).Set(float64(i))
	}
	for i := 0; i < 5; i++ {
		h := bus.Histogram(fmt.Sprintf("bench.lat_%d", i), telemetry.LatencyBuckets())
		for j := 0; j < 64; j++ {
			h.Observe(0.001 * float64(j+1))
		}
	}
	coll := tsdb.NewCollector(tsdb.New(tsdb.Options{
		Retention: 24, RawWindow: 6, DownsampleStep: 0.25,
	}), bus, 0.25)
	coll.SetDelta(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll.Scrape(0.25 * float64(i+1))
	}
}

// CollectorScrapeChurn measures the delta path's worst case: every
// instrument (including every histogram) changes between scrapes, so no
// cached replay is possible and each scrape re-reads all bucket arrays.
func CollectorScrapeChurn(b *testing.B) {
	bus := telemetry.New()
	ctrs := make([]*telemetry.Counter, 20)
	hists := make([]*telemetry.Histogram, 5)
	for i := 0; i < 20; i++ {
		shard := telemetry.String("shard", fmt.Sprintf("s%02d", i))
		ctrs[i] = bus.Counter(telemetry.Labeled("bench.ops", shard))
		bus.Gauge(telemetry.Labeled("bench.depth", shard)).Set(float64(i))
	}
	for i := 0; i < 5; i++ {
		hists[i] = bus.Histogram(fmt.Sprintf("bench.lat_%d", i), telemetry.LatencyBuckets())
	}
	coll := tsdb.NewCollector(tsdb.New(tsdb.Options{
		Retention: 24, RawWindow: 6, DownsampleStep: 0.25,
	}), bus, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range ctrs {
			c.Inc()
		}
		for _, h := range hists {
			h.Observe(0.001 * float64(i%64+1))
		}
		coll.Scrape(0.25 * float64(i+1))
	}
}

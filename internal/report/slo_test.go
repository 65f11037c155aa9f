package report

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

func TestSLOSummaryRendersScorecard(t *testing.T) {
	out := SLOSummary([]alert.Status{{
		Name: "avail", Objective: 0.99, Window: 6,
		Good: 160, Total: 178, ErrorRatio: 0.1011, Budget: 0.01,
		BudgetConsumed: 10.11, FastBurn: 12, SlowBurn: 10.1,
	}})
	for _, want := range []string{"avail", "160", "178", "BREACHED", "1011.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("scorecard missing %q:\n%s", want, out)
		}
	}
	if got := SLOSummary(nil); got != "slo: none configured\n" {
		t.Errorf("empty scorecard = %q", got)
	}
}

func TestDashboardDeterministicAndComplete(t *testing.T) {
	build := func() string {
		bus := telemetry.New()
		bus.Gauge("cloud.instances_active").Set(3)
		bus.Gauge(telemetry.Labeled("cloud.instances_active",
			telemetry.String("flavor", "m1.large"))).Set(3)
		bus.Gauge("serve.queue_depth").Set(5)
		bus.Gauge(telemetry.Labeled("cloud.spot_price",
			telemetry.String("pool", "gpu_a100"))).Set(1.25)
		bus.Counter("cloud.spot_preemptions").Add(2)
		h := bus.Histogram("serve.batch_form_seconds", telemetry.LatencyBuckets())
		for i := 0; i < 40; i++ {
			h.Observe(0.001 * float64(1+i%7))
		}
		c := tsdb.NewCollector(tsdb.New(tsdb.Options{}), bus, 0.25)
		eng := alert.NewEngine(c.DB())
		eng.AddSLO(alert.SLO{Name: "avail", Objective: 0.99,
			Good: `req{outcome="ok"}`, Total: "req", Window: 6})
		for i := 1; i <= 8; i++ {
			now := float64(i) * 0.25
			c.Scrape(now)
			eng.Step(now)
		}
		return Dashboard(c.DB(), eng, 2)
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("dashboard not byte-identical:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"== Dashboard (t=2.00h) ==",
		"-- Capacity --",
		"-- Queues --",
		"-- Spot market --",
		`spot price{pool="gpu_a100"}`,
		"cloud.spot_preemptions",
		"cloud.spot_reclaims",
		"cloud.spot_vacated",
		"-- Latency quantiles --",
		"-- Observability --",
		"tsdb.scrapes",
		"tsdb.scrape_samples",
		"tsdb.series_count",
		"tsdb.dropped_samples",
		"-- Error budget --",
		"== Alerts ==",
		`cloud.instances_active{flavor="m1.large"}`,
		"serve.batch_form_seconds",
		"p50=", "p95=", "p99=",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("dashboard missing %q:\n%s", want, a)
		}
	}
}

func TestMetricsJSON(t *testing.T) {
	bus := telemetry.New()
	bus.Counter("c").Add(3)
	h := bus.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(99)
	out, err := MetricsJSON(bus.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if len(parsed) != 2 {
		t.Fatalf("parsed %d metrics", len(parsed))
	}
	if !strings.Contains(out, `"+Inf"`) {
		t.Errorf("overflow bucket bound must serialize as \"+Inf\":\n%s", out)
	}
	// Buckets are cumulative, like the scraped _bucket series.
	var lat map[string]any
	for _, m := range parsed {
		if m["name"] == "lat" {
			lat = m
		}
	}
	buckets := lat["buckets"].([]any)
	last := buckets[len(buckets)-1].(map[string]any)
	if last["le"] != "+Inf" || last["count"].(float64) != 2 {
		t.Errorf("last bucket = %v", last)
	}
}

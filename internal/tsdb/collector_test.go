package tsdb

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

func TestScrapeMapping(t *testing.T) {
	bus := telemetry.New()
	bus.Counter("plain").Add(3)
	bus.Counter(telemetry.Labeled("cloud.launches",
		telemetry.Attr{Key: "flavor", Value: "m1.large"},
		telemetry.Attr{Key: "project", Value: "demo"})).Add(5)
	bus.Gauge("depth").Set(7)
	h := bus.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99) // overflow bucket

	c := NewCollector(New(Options{}), bus, 0.25)
	c.Scrape(1)
	db := c.DB()

	if v, _ := db.Query("plain", 1); v.(Vector)[0].V != 3 {
		t.Errorf("plain = %+v", v)
	}
	v, _ := db.Query(`cloud.launches{flavor="m1.large",project="demo"}`, 1)
	if vec := v.(Vector); len(vec) != 1 || vec[0].V != 5 {
		t.Errorf("labeled counter = %+v", v)
	}
	if v, _ := db.Query("depth", 1); v.(Vector)[0].V != 7 {
		t.Errorf("gauge = %+v", v)
	}
	// Histogram: cumulative buckets, +Inf overflow, _sum, _count.
	for sel, want := range map[string]float64{
		`lat_bucket{le="1"}`:    1,
		`lat_bucket{le="2"}`:    2,
		`lat_bucket{le="+Inf"}`: 3,
		"lat_count":             3,
		"lat_sum":               101,
	} {
		v, err := db.Query(sel, 1)
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		vec := v.(Vector)
		if len(vec) != 1 || vec[0].V != want {
			t.Errorf("%s = %+v, want %v", sel, vec, want)
		}
	}
	// histogram_quantile works end-to-end over the scraped buckets and
	// agrees with the bus's own quantile estimate.
	v, err := db.Query("histogram_quantile(0.5, lat_bucket)", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := telemetry.Find(bus.Snapshot(), "lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := m.Quantile(0.5)
	if got := v.(Vector)[0].V; got != want {
		t.Errorf("histogram_quantile = %v, bus says %v", got, want)
	}
	if scrapes, samples := c.Stats(); scrapes != 1 || samples == 0 {
		t.Errorf("stats = %d, %d", scrapes, samples)
	}
}

func TestStartStepAlignment(t *testing.T) {
	clk := simclock.New()
	bus := telemetry.New()
	g := bus.Gauge("g")
	c := NewCollector(New(Options{}), bus, 0.25)

	// Advance to an unaligned time, then start: the first scrape must
	// land on the next multiple of the interval, not at now.
	clk.At(0.1, "warp", func() { g.Set(1) })
	clk.RunUntil(0.1)
	c.Start(clk, func() bool { return clk.Now() >= 1.0 })
	clk.RunUntil(1.0)

	pts := c.DB().Select("g", nil)[0].Points
	if len(pts) == 0 || pts[0].T != 0.25 {
		t.Fatalf("first scrape at %v, want 0.25 (points %+v)", pts, pts)
	}
	for _, p := range pts {
		steps := p.T / 0.25
		if math.Abs(steps-math.Round(steps)) > 1e-9 {
			t.Errorf("unaligned scrape at %v", p.T)
		}
	}
}

func TestOnScrapeHookSeesFreshSamples(t *testing.T) {
	bus := telemetry.New()
	bus.Counter("c").Add(2)
	c := NewCollector(New(Options{}), bus, 0.25)
	var got []float64
	c.OnScrape(func(now float64) {
		v, _ := c.DB().Query("c", now)
		got = append(got, now, v.(Vector)[0].V)
	})
	c.OnScrape(nil) // no-op, must not panic
	c.Scrape(0.25)
	if len(got) != 2 || got[0] != 0.25 || got[1] != 2 {
		t.Errorf("hook saw %v", got)
	}
}

// TestScrapeWhileEmit drives concurrent instrument updates and scrapes;
// run with -race this pins the collector's locking discipline.
func TestScrapeWhileEmit(t *testing.T) {
	bus := telemetry.New()
	c := NewCollector(New(Options{}), bus, 0.25)
	stop := make(chan struct{})
	writerDone := make(chan struct{})

	// Register the instruments up front so every scrape sees the series.
	ctr := bus.Counter("busy")
	h := bus.Histogram("lat", telemetry.LatencyBuckets())

	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctr.Inc()
			h.Observe(float64(i%17) * 0.001)
		}
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Scrape(float64(i) * 0.25)
		}
	}()
	wg.Wait()
	close(stop)
	<-writerDone

	if scrapes, _ := c.Stats(); scrapes != 200 {
		t.Errorf("scrapes = %d", scrapes)
	}
	// The scraped counter series must be monotone non-decreasing.
	pts := c.DB().Select("busy", nil)[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].V < pts[i-1].V {
			t.Errorf("counter went backwards: %v -> %v", pts[i-1], pts[i])
		}
	}
}

// TestScrapeDeltaMatchesFullSnapshot is the byte-identity cmp gate for
// incremental scraping: an identical workload scraped through the delta
// path and through the full-snapshot fallback must produce
// byte-identical stores — including scrapes where every histogram is
// idle (pure cached replay) and scrapes where everything churns.
func TestScrapeDeltaMatchesFullSnapshot(t *testing.T) {
	run := func(delta bool) string {
		bus := telemetry.New()
		c := NewCollector(New(Options{Retention: 24}), bus, 0.25)
		c.SetDelta(delta)
		ctr := bus.Counter(telemetry.Labeled("w.ops", telemetry.String("shard", "s0")))
		g := bus.Gauge("w.depth")
		h := bus.Histogram("w.lat", []float64{0.001, 0.01, 0.1})
		for i := 1; i <= 40; i++ {
			now := 0.25 * float64(i)
			switch i % 4 {
			case 0: // everything idle: delta path replays cached values
			case 1:
				ctr.Add(int64(i))
				h.Observe(0.0005 * float64(i%8+1))
			case 2:
				g.Set(float64(i))
			case 3:
				ctr.Inc()
				g.Add(-0.5)
				h.Observe(0.05)
				h.Observe(99) // overflow bucket
			}
			if i == 20 {
				// Late registration: a new instrument appears mid-run and
				// must enter both paths at the same scrape.
				bus.Counter("w.late").Add(7)
			}
			c.Scrape(now)
		}
		return dbState(c.DB())
	}
	a, b := run(true), run(false)
	if a != b {
		t.Fatalf("delta scrape diverged from full snapshot:\n--- delta ---\n%s\n--- full ---\n%s", a, b)
	}
}

// The collector's deterministic self-metrics land in the main DB (so
// dashboards can query them); the nondeterministic scrape duration
// never does.
func TestScrapeSelfMetrics(t *testing.T) {
	bus := telemetry.New()
	bus.Counter("c").Add(2)
	c := NewCollector(New(Options{}), bus, 0.25)
	mc := clock.NewManual(time.Unix(0, 0))
	c.SetWallClock(mc)
	for i := 1; i <= 3; i++ {
		c.Scrape(0.25 * float64(i))
	}
	for name, want := range map[string]float64{
		"tsdb.scrapes":        3,
		"tsdb.scrape_samples": 3, // one counter sample per scrape
	} {
		v, err := c.DB().Query(name, 0.75)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vec := v.(Vector); len(vec) != 1 || vec[0].V != want {
			t.Errorf("%s = %+v, want %v", name, v, want)
		}
	}
	for _, name := range []string{"tsdb.series_count", "tsdb.dropped_samples"} {
		v, err := c.DB().Query(name, 0.75)
		if err != nil || len(v.(Vector)) != 1 {
			t.Errorf("%s missing from main DB: %+v %v", name, v, err)
		}
	}
	if got := c.DB().Select("tsdb.scrape_duration", nil); len(got) != 0 {
		t.Error("nondeterministic scrape_duration leaked into the main DB")
	}
}

// dbState renders every series in db, in name order, so two stores can
// be compared byte for byte.
func dbState(db *DB) string {
	var b strings.Builder
	for _, name := range db.Names() {
		fmt.Fprintf(&b, "%v\n", db.Select(name, nil))
	}
	return b.String()
}

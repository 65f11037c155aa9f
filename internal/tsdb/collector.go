package tsdb

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Collector turns telemetry.Bus instruments into labeled series. It
// scrapes on a sim-clock-aligned interval.
//
// Scrape mapping (Prometheus conventions, adapted to the bus):
//
//   - counter  name{labels}       -> series name{labels}, cumulative total
//   - gauge    name{labels}       -> series name{labels}, current value
//   - histogram name{labels}      -> name_bucket{labels,le="<bound>"}
//     (cumulative counts, le="+Inf" for the overflow bucket), plus
//     name_sum{labels} and name_count{labels}
//
// Labeled instrument names ("base{k=v,...}", see telemetry.Labeled) are
// parsed back into base name + labels; flat names become label-less
// series. Scrapes are aligned to multiples of the interval, so two runs
// of the same seeded scenario produce byte-identical series.
//
// The hot path follows the zero-alloc scrape contract (DESIGN §14):
// each instrument is resolved once into a scrapePlan — labeled name
// parsed, label sets interned, bucket `le` strings formatted, SeriesRef
// handles created — and every later scrape replays the plan. In delta
// mode (the default) histograms are read via SnapshotDelta: when the
// observation total is unchanged since the last scrape the cached
// cumulative buckets are replayed at the new timestamp, so the stored
// bytes are identical to a full scrape by construction (proven by a cmp
// test) without touching the bucket array. SetDelta(false) selects the
// full-snapshot fallback, which routes Bus.SnapshotAppend output through
// the same plans.
type Collector struct {
	db  *DB
	bus *telemetry.Bus

	// Interval is the scrape period in simulated hours.
	Interval float64

	mu         sync.Mutex
	onScrape   []func(now float64)
	hooksCache []func(now float64) // immutable snapshot of onScrape
	scrapes    int64
	samples    int64

	delta     bool
	interner  *Interner
	plans     map[string]*scrapePlan // keyed by full instrument name, chained on kind
	insts     []telemetry.Instrument // cached bus listing, valid while instGen matches
	planned   []*scrapePlan          // parallel to insts
	instGen   uint64
	instsOK   bool
	snapBuf   []telemetry.Metric // full-snapshot fallback only, reused under mu
	snapPlans []*scrapePlan      // parallel to snapBuf

	// Self-observation. The deterministic pipeline metrics
	// (tsdb.scrapes, tsdb.scrape_samples, tsdb.series_count,
	// tsdb.dropped_samples) go into the main DB so dashboards and rules
	// can query them; the nondeterministic wall-clock cost of the last
	// scrape is only kept in lastDur, so it never feeds cmp-gated output.
	wall        clock.Clock // nil: lastDur stays 0
	lastDur     time.Duration
	selfScrapes *SeriesRef
	selfSamples *SeriesRef
	selfSeries  *SeriesRef
	selfDropped *SeriesRef
}

// scrapePlan is the precomputed per-instrument scrape recipe: all
// parsing, label canonicalization, interning and `le` formatting happens
// once when the plan is built; scrapes only read values and AppendRef.
type scrapePlan struct {
	kind string
	alt  *scrapePlan // next plan with the same name but different kind

	ref *SeriesRef // counter / gauge

	// Histogram state. cums caches the cumulative bucket values (and
	// lastSum/lastCount the sum/count series values) as of the last
	// changed read, replayed verbatim while the histogram is idle.
	bucketRefs []*SeriesRef
	sumRef     *SeriesRef
	countRef   *SeriesRef
	counts     []int64
	cums       []float64
	lastSum    float64
	lastCount  int64
}

// NewCollector wires a collector from bus to db. Interval must be
// positive; it defaults to 0.25 simulated hours. Delta scraping is on
// by default.
func NewCollector(db *DB, bus *telemetry.Bus, interval float64) *Collector {
	if interval <= 0 {
		interval = 0.25
	}
	return &Collector{
		db:       db,
		bus:      bus,
		Interval: interval,
		delta:    true,
		interner: NewInterner(),
		plans:    map[string]*scrapePlan{},
		// A ref makes no series until its first append, in Scrape.
		selfScrapes: db.Ref("tsdb.scrapes", nil),
		selfSamples: db.Ref("tsdb.scrape_samples", nil),
		selfSeries:  db.Ref("tsdb.series_count", nil),
		selfDropped: db.Ref("tsdb.dropped_samples", nil),
	}
}

// DB returns the store this collector appends into.
func (c *Collector) DB() *DB { return c.db }

// SetDelta toggles incremental scraping; false selects the
// full-snapshot fallback path. Both store byte-identical series.
//
//lint:ignore deadcode it selects the full-snapshot reference path for the delta-vs-full scrape test
func (c *Collector) SetDelta(on bool) {
	c.mu.Lock()
	c.delta = on
	c.mu.Unlock()
}

// SetWallClock injects the clock used to measure real scrape cost for
// LastScrapeDuration. Leave unset (the default) in deterministic
// simulations; cmd binaries inject clock.System.
func (c *Collector) SetWallClock(w clock.Clock) {
	c.mu.Lock()
	c.wall = w
	c.mu.Unlock()
}

// LastScrapeDuration reports the wall-clock cost of the most recent
// scrape (0 if no wall clock is set).
func (c *Collector) LastScrapeDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastDur
}

// Interner exposes the collector's label-set intern table (for stats).
func (c *Collector) Interner() *Interner { return c.interner }

// OnScrape registers fn to run after every scrape (and after the DB has
// been compacted), on the scraping goroutine. The alert engine hooks in
// here so rule evaluation is aligned with sample ingestion.
func (c *Collector) OnScrape(fn func(now float64)) {
	if fn == nil {
		return
	}
	c.mu.Lock()
	c.onScrape = append(c.onScrape, fn)
	c.hooksCache = append([]func(now float64){}, c.onScrape...)
	c.mu.Unlock()
}

// Start schedules scrapes on the simulation clock at the first multiple
// of Interval at or after the current time, repeating every Interval
// until stop returns true (nil stop = forever). It returns the first
// scheduled event so callers can cancel.
func (c *Collector) Start(clk *simclock.Clock, stop func() bool) *simclock.Event {
	first := math.Ceil(clk.Now()/c.Interval) * c.Interval
	if first < clk.Now() { // guard FP rounding
		first += c.Interval
	}
	return clk.Every(first, c.Interval, "tsdb.scrape",
		func() { c.Scrape(clk.Now()) }, stop)
}

// planFor resolves the scrape plan for one instrument, building it on
// first sight. bounds is only consulted when a histogram plan is built.
// Called with c.mu held.
func (c *Collector) planFor(name, kind string, bounds []float64) *scrapePlan {
	if p := c.lookupPlan(name, kind); p != nil {
		return p
	}
	base, attrs := telemetry.ParseLabeled(name)
	set := c.interner.Intern(LabelsFromAttrs(attrs))
	p := &scrapePlan{kind: kind, alt: c.plans[name]}
	if kind == "histogram" {
		nb := len(bounds) + 1
		p.bucketRefs = make([]*SeriesRef, nb)
		for i := range p.bucketRefs {
			le := "+Inf"
			if i < len(bounds) {
				le = formatBound(bounds[i])
			}
			bset := c.interner.Intern(set.Labels().With("le", le))
			p.bucketRefs[i] = c.db.RefSet(base+"_bucket", bset)
		}
		p.sumRef = c.db.RefSet(base+"_sum", set)
		p.countRef = c.db.RefSet(base+"_count", set)
		p.counts = make([]int64, 0, nb)
		p.cums = make([]float64, nb)
	} else {
		p.ref = c.db.RefSet(base, set)
	}
	c.plans[name] = p
	return p
}

// lookupPlan returns the plan already built for one instrument, or nil.
// Called with c.mu held.
func (c *Collector) lookupPlan(name, kind string) *scrapePlan {
	for p := c.plans[name]; p != nil; p = p.alt {
		if p.kind == kind {
			return p
		}
	}
	return nil
}

// planDelta refreshes the cached bus listing and its plans, only when
// the bus registration generation has moved. Called with c.mu held.
func (c *Collector) planDelta() {
	if g := c.bus.Gen(); !c.instsOK || g != c.instGen {
		c.insts = c.bus.Instruments(c.insts)
		c.planned = c.planned[:0]
		for i := range c.insts {
			inst := &c.insts[i]
			c.planned = append(c.planned, c.planFor(inst.Name, inst.Kind, inst.Hist.Bounds()))
		}
		c.instGen, c.instsOK = g, true
	}
}

// appendDelta walks the bus instruments directly and replays each plan.
// Unchanged histograms cost one lock acquisition and zero copies.
// Returns samples appended. Called with c.mu and c.db.mu held.
func (c *Collector) appendDelta(now float64) int {
	db := c.db
	n := 0
	for i := range c.insts {
		inst, p := &c.insts[i], c.planned[i]
		switch inst.Kind {
		case "counter":
			db.appendRefLocked(p.ref, now, float64(inst.Counter.Value()))
			n++
		case "gauge":
			db.appendRefLocked(p.ref, now, inst.Gauge.Value())
			n++
		case "histogram":
			counts, sum, total, changed := inst.Hist.SnapshotDelta(p.lastCount, p.counts[:0])
			if changed {
				p.counts = counts
				var cum int64
				for j, cnt := range counts {
					cum += cnt
					p.cums[j] = float64(cum)
				}
				p.lastSum, p.lastCount = sum, total
			}
			for j, r := range p.bucketRefs {
				db.appendRefLocked(r, now, p.cums[j])
			}
			db.appendRefLocked(p.sumRef, now, p.lastSum)
			db.appendRefLocked(p.countRef, now, float64(p.lastCount))
			n += len(p.bucketRefs) + 2
		}
	}
	return n
}

// planSnapshot is the full-snapshot fallback's first half: one
// Bus.SnapshotAppend into the reused buffer, and the plan of each
// metric in it. Called with c.mu held.
func (c *Collector) planSnapshot() {
	c.snapBuf = c.bus.SnapshotAppend(c.snapBuf[:0])
	c.snapPlans = c.snapPlans[:0]
	for i := range c.snapBuf {
		m := &c.snapBuf[i]
		p := c.lookupPlan(m.Name, m.Kind)
		if p == nil {
			var bounds []float64
			if m.Kind == "histogram" {
				bounds = make([]float64, 0, len(m.Buckets))
				for _, bkt := range m.Buckets {
					if !math.IsInf(bkt.Bound, 1) {
						bounds = append(bounds, bkt.Bound)
					}
				}
			}
			p = c.planFor(m.Name, m.Kind, bounds)
		}
		c.snapPlans = append(c.snapPlans, p)
	}
}

// appendSnapshot routes the snapshot through the same plans, so the
// stored bytes match appendDelta exactly. Called with c.mu and c.db.mu
// held.
func (c *Collector) appendSnapshot(now float64) int {
	db := c.db
	n := 0
	for i := range c.snapBuf {
		m, p := &c.snapBuf[i], c.snapPlans[i]
		if m.Kind != "histogram" {
			db.appendRefLocked(p.ref, now, m.Value)
			n++
			continue
		}
		var cum int64
		for j, bkt := range m.Buckets {
			cum += bkt.Count
			p.cums[j] = float64(cum)
			db.appendRefLocked(p.bucketRefs[j], now, p.cums[j])
		}
		db.appendRefLocked(p.sumRef, now, m.Sum)
		db.appendRefLocked(p.countRef, now, float64(m.Count))
		// Keep the delta cache coherent so modes can be switched
		// mid-run without replaying stale values.
		p.lastSum, p.lastCount = m.Sum, m.Count
		n += len(m.Buckets) + 2
	}
	return n
}

// Scrape ingests one pass over the bus at time now, compacts the DB,
// records the pipeline self-metrics, and runs the scrape hooks. It is
// safe to call concurrently with instrument updates; series identity
// makes re-scrapes at the same timestamp updates rather than
// duplicates. The plans are refreshed first, because building one
// resolves refs through the DB; then the samples, the compaction and
// the self-metrics go in under one DB write lock.
func (c *Collector) Scrape(now float64) {
	c.mu.Lock()
	var start time.Time
	if c.wall != nil {
		start = c.wall.Now()
	}
	if c.delta {
		c.planDelta()
	} else {
		c.planSnapshot()
	}

	db := c.db
	db.mu.Lock()
	var n int
	if c.delta {
		n = c.appendDelta(now)
	} else {
		n = c.appendSnapshot(now)
	}
	db.compactLocked(now)
	c.scrapes++
	c.samples += int64(n)
	db.appendRefLocked(c.selfScrapes, now, float64(c.scrapes))
	db.appendRefLocked(c.selfSamples, now, float64(c.samples))
	db.appendRefLocked(c.selfSeries, now, float64(len(db.series)))
	db.appendRefLocked(c.selfDropped, now, float64(db.dropped))
	db.mu.Unlock()

	if c.wall != nil {
		c.lastDur = clock.Since(c.wall, start)
	}

	hooks := c.hooksCache
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(now)
	}
}

// Stats reports completed scrapes and total samples ingested by Scrape.
func (c *Collector) Stats() (scrapes, samples int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scrapes, c.samples
}

// formatBound renders a histogram bucket upper bound as a stable `le`
// label value; the overflow bucket is "+Inf".
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// parseBound is the inverse of formatBound ("le" label -> float).
func parseBound(s string) (float64, bool) {
	if s == "+Inf" || s == "Inf" || s == "inf" {
		return math.Inf(1), true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

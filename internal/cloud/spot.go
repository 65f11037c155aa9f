package cloud

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/logging"
	"repro/internal/telemetry"
)

// Spot market errors.
var (
	ErrSpotDisabled   = errors.New("cloud: spot market not enabled")
	ErrNoSpotPool     = errors.New("cloud: no spot pool for flavor")
	ErrNoSpotCapacity = errors.New("cloud: spot pool has no free capacity")
)

// SpotPool is the preemptible capacity pool for one flavor: a slot count
// and a seeded price series. Pools shrink when the chaos engine injects
// KindPreempt faults (capacity reclaimed by the provider) and grow back
// when those faults recover.
type SpotPool struct {
	Flavor   Flavor
	Capacity int
	Series   cost.SpotPriceSeries

	active int // spot instances currently running in the pool
}

// SpotNotice is the advance warning a spot instance receives before the
// market reclaims it: the instance keeps running until ReclaimAt, and a
// controller that drains and deletes it first "vacates" cleanly.
type SpotNotice struct {
	Pool       string  `json:"pool"`
	InstanceID string  `json:"instance_id"`
	NoticedAt  float64 `json:"noticed_at"`
	ReclaimAt  float64 `json:"reclaim_at"`
}

// SpotPoolView is a point-in-time pool snapshot for CLIs and reports.
type SpotPoolView struct {
	Pool            string  `json:"pool"`
	Capacity        int     `json:"capacity"`
	Active          int     `json:"active"`
	SpotPerHour     float64 `json:"spot_per_hour"`
	OnDemandPerHour float64 `json:"on_demand_per_hour"`
}

// SpotMarket is the site's preemptible-capacity market. All state is
// guarded by the owning Cloud's lock, so market bookkeeping stays
// consistent with instance lifecycle (launch, delete, failure) without a
// second lock order.
//
// Determinism: pool prices are generated before the run, preemptions
// arrive only through the chaos plan, victims are selected by a total
// order (newest launch, then highest ID), and notice subscribers are
// invoked in registration order — so the same seed replays the same
// market byte for byte. A market with no pools arms zero clock events
// and touches no telemetry: enabling spot and never adding a pool is
// bit-identical to never enabling it.
type SpotMarket struct {
	c           *Cloud
	noticeHours float64

	pools   map[string]*SpotPool
	poolOf  map[string]string // spot instance ID -> pool name
	noticed map[string]bool   // instance IDs with a pending reclaim
	notices []SpotNotice
	subs    []func(SpotNotice)

	preempts int64 // notices issued
	reclaims int64 // instances actually reclaimed (still running at deadline)
	vacated  int64 // instances gone by the deadline (migrated in time)

	log *logging.Component // "spot" stream; nil no-ops
}

// EnableSpot attaches a spot market that issues noticeHours of advance
// warning before reclaiming an instance (e.g. 2.0/60 for two
// sim-minutes). Calling it again returns the existing market.
func (c *Cloud) EnableSpot(noticeHours float64) *SpotMarket {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spot == nil {
		c.spot = &SpotMarket{
			c:           c,
			noticeHours: noticeHours,
			pools:       map[string]*SpotPool{},
			poolOf:      map[string]string{},
			noticed:     map[string]bool{},
			log:         c.logger.Component("spot"),
		}
	}
	return c.spot
}

// Spot returns the site's market, or nil if EnableSpot was never called.
func (c *Cloud) Spot() *SpotMarket {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spot
}

// AddPool registers preemptible capacity for a flavor and arms the
// pool's price series: the spot_price gauge is set now and re-set by one
// clock event per future price change (a flat series arms nothing).
func (m *SpotMarket) AddPool(f Flavor, capacity int, series cost.SpotPriceSeries) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	m.pools[f.Name] = &SpotPool{Flavor: f, Capacity: capacity, Series: series}
	now := c.clock.Now()
	priceGauge := telemetry.Labeled("cloud.spot_price", telemetry.String("pool", f.Name))
	c.tel.Gauge(priceGauge).Set(series.RateAt(now))
	c.tel.Gauge(telemetry.Labeled("cloud.spot_capacity",
		telemetry.String("pool", f.Name))).Set(float64(capacity))
	for _, seg := range series.Segments {
		if seg.Start <= now {
			continue
		}
		seg := seg
		c.clock.At(seg.Start, "cloud.spot_price "+f.Name, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.tel.Gauge(priceGauge).Set(seg.PerHour)
		})
	}
	m.log.Info("spot pool added",
		logging.Str("pool", f.Name),
		logging.Int("capacity", capacity),
		logging.Float("per_hour", series.RateAt(now)))
}

// OnNotice subscribes to preemption notices. Subscribers run outside the
// cloud lock, in registration order, at the notice instant — they may
// call back into the cloud (to checkpoint, relaunch, delete).
func (m *SpotMarket) OnNotice(fn func(SpotNotice)) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// Preempt shrinks a pool's capacity by one slot (the provider reclaimed
// it). If the pool is now over-subscribed, the newest running spot
// instance gets a notice and is reclaimed noticeHours later through the
// metering-correct instance-failure path — unless it is gone by then.
// This is the chaos engine's KindPreempt inject target.
func (m *SpotMarket) Preempt(pool string) error {
	c := m.c
	c.mu.Lock()
	p, ok := m.pools[pool]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSpotPool, pool)
	}
	p.Capacity--
	now := c.clock.Now()
	c.tel.Counter("cloud.spot_capacity_drops").Inc()
	c.tel.Gauge(telemetry.Labeled("cloud.spot_capacity",
		telemetry.String("pool", pool))).Set(float64(p.Capacity))
	var notice SpotNotice
	haveVictim := false
	if p.active > p.Capacity {
		if inst := m.victimLocked(pool); inst != nil {
			notice = SpotNotice{
				Pool:       pool,
				InstanceID: inst.ID,
				NoticedAt:  now,
				ReclaimAt:  now + m.noticeHours,
			}
			m.notices = append(m.notices, notice)
			m.noticed[inst.ID] = true
			m.preempts++
			haveVictim = true
			c.tel.Counter("cloud.spot_preemptions").Inc()
			c.tel.Counter(telemetry.Labeled("cloud.spot_preemptions",
				telemetry.String("pool", pool))).Inc()
			m.log.Warn("spot preemption notice",
				logging.Str("pool", pool),
				logging.Str("id", notice.InstanceID),
				logging.Float("reclaim_at", notice.ReclaimAt))
			id := inst.ID
			c.clock.At(notice.ReclaimAt, "cloud.spot_reclaim "+id, func() {
				m.reclaim(id, pool)
			})
		}
	}
	subs := append([]func(SpotNotice){}, m.subs...)
	c.mu.Unlock()
	if haveVictim {
		for _, fn := range subs {
			fn(notice)
		}
	}
	return nil
}

// Release returns one reclaimed slot to the pool — the chaos engine's
// KindPreempt recovery target.
func (m *SpotMarket) Release(pool string) error {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := m.pools[pool]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSpotPool, pool)
	}
	p.Capacity++
	c.tel.Counter("cloud.spot_capacity_returns").Inc()
	c.tel.Gauge(telemetry.Labeled("cloud.spot_capacity",
		telemetry.String("pool", pool))).Set(float64(p.Capacity))
	return nil
}

// victimLocked picks the spot instance the market reclaims: the newest
// launch (ties broken by highest ID) that is still running and not
// already under notice. Scanning sorted IDs keeps the choice independent
// of map iteration order.
func (m *SpotMarket) victimLocked(pool string) *Instance {
	ids := make([]string, 0, len(m.poolOf))
	for id, pl := range m.poolOf {
		if pl == pool && !m.noticed[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var victim *Instance
	for _, id := range ids {
		inst, ok := m.c.instances[id]
		if !ok || !inst.Running() {
			continue
		}
		if victim == nil || inst.LaunchedAt > victim.LaunchedAt ||
			(inst.LaunchedAt == victim.LaunchedAt && inst.ID > victim.ID) {
			victim = inst
		}
	}
	return victim
}

// reclaim runs at a notice's deadline: if the victim is still running it
// fails through the standard lifecycle (meter closed at this instant,
// capacity, quota and any floating IP released exactly once); if the
// controller already migrated it away, the preemption counts as vacated.
func (m *SpotMarket) reclaim(id, pool string) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(m.noticed, id)
	inst, ok := c.instances[id]
	if ok && inst.Running() {
		c.failInstanceLocked(inst, "spot capacity reclaimed (pool "+pool+")")
		m.reclaims++
		c.tel.Counter("cloud.spot_reclaims").Inc()
		m.log.Warn("spot instance reclaimed while running",
			logging.Str("pool", pool),
			logging.Str("id", id))
		return
	}
	m.vacated++
	c.tel.Counter("cloud.spot_vacated").Inc()
	m.log.Info("spot instance vacated before deadline",
		logging.Str("pool", pool),
		logging.Str("id", id))
}

// releaseInstanceLocked unbinds a spot instance from its pool when it
// terminates for any reason. Called from deleteLocked and
// failInstanceLocked with the cloud lock held.
func (m *SpotMarket) releaseInstanceLocked(inst *Instance) {
	pool, ok := m.poolOf[inst.ID]
	if !ok {
		return
	}
	delete(m.poolOf, inst.ID)
	if p := m.pools[pool]; p != nil {
		p.active--
	}
}

// PriceAt returns the pool's spot $/hour at time t.
func (m *SpotMarket) PriceAt(pool string, t float64) (float64, bool) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	p, ok := m.pools[pool]
	if !ok {
		return 0, false
	}
	return p.Series.RateAt(t), true
}

// Series returns the pool's full price series (for billing).
func (m *SpotMarket) Series(pool string) (cost.SpotPriceSeries, bool) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	p, ok := m.pools[pool]
	if !ok {
		return cost.SpotPriceSeries{}, false
	}
	return p.Series, true
}

// FreeCapacity reports how many spot slots the pool has left.
func (m *SpotMarket) FreeCapacity(pool string) (int, bool) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	p, ok := m.pools[pool]
	if !ok {
		return 0, false
	}
	free := p.Capacity - p.active
	if free < 0 {
		free = 0
	}
	return free, true
}

// Pools returns pool snapshots sorted by name.
func (m *SpotMarket) Pools() []SpotPoolView {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	now := m.c.clock.Now()
	names := make([]string, 0, len(m.pools))
	for name := range m.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpotPoolView, 0, len(names))
	for _, name := range names {
		p := m.pools[name]
		out = append(out, SpotPoolView{
			Pool:            name,
			Capacity:        p.Capacity,
			Active:          p.active,
			SpotPerHour:     p.Series.RateAt(now),
			OnDemandPerHour: p.Series.OnDemandPerHour,
		})
	}
	return out
}

// Notices returns the notice history in issue order. Never nil, so the
// JSON encoding of an empty history is [] rather than null.
func (m *SpotMarket) Notices() []SpotNotice {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return append([]SpotNotice{}, m.notices...)
}

// Stats returns lifetime counts: notices issued, instances reclaimed at
// the deadline, and instances that vacated in time.
func (m *SpotMarket) Stats() (preempts, reclaims, vacated int64) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return m.preempts, m.reclaims, m.vacated
}

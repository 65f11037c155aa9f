package chaos

import (
	"strconv"
	"sync"

	"repro/internal/logging"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// HostFailer is the slice of the cloud API the engine drives for
// host-crash faults; *cloud.Cloud satisfies it. Defining the interface
// here keeps chaos free of a cloud dependency, so packages the cloud
// imports could still use the engine.
type HostFailer interface {
	FailHost(name string) error
	RecoverHost(name string) error
}

// Preempter handles spot-preemption faults; *cloud.SpotMarket satisfies
// it. Preempt shrinks a pool's capacity by one (the market notices and
// then reclaims its newest spot instance); Release returns the slot when
// the fault's Duration elapses.
type Preempter interface {
	Preempt(pool string) error
	Release(pool string) error
}

// Engine arms a Plan against a simulation: host crashes and spot
// preemptions are delegated to the registered failers, and dead ranks
// are recorded in a registry the collective layer queries. All
// scheduling happens on the shared simclock, so injections interleave
// deterministically with the rest of the simulation.
type Engine struct {
	clk *simclock.Clock
	tel *telemetry.Bus
	log *logging.Component // "chaos" stream; nil no-ops

	mu    sync.Mutex
	hosts HostFailer
	spot  Preempter
	ranks map[int]bool

	injected    int64
	recovered   int64
	injectFails int64
	live        []ActiveFault
}

// ActiveFault is one currently-applied fault: the plan entry plus the
// instant it was actually injected. The flight recorder snapshots these
// into incident bundles, so an operator reading a bundle sees which
// faults were in force when the alert fired.
type ActiveFault struct {
	Fault      Fault
	InjectedAt float64
}

// New returns an engine bound to the simulation clock. tel may be nil.
func New(clk *simclock.Clock, tel *telemetry.Bus) *Engine {
	return &Engine{
		clk: clk, tel: tel,
		ranks: map[int]bool{},
	}
}

// SetLogging attaches the structured logger; every injection, failed
// injection, and recovery leaves a "chaos" log line. Call before Arm.
func (e *Engine) SetLogging(lg *logging.Logger) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log = lg.Component("chaos")
}

// SetHostFailer registers the target for host-crash faults.
func (e *Engine) SetHostFailer(h HostFailer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hosts = h
}

// SetPreempter registers the target for spot-preemption faults.
func (e *Engine) SetPreempter(p Preempter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spot = p
}

// Arm schedules every fault in the plan (and, for faults with a positive
// Duration, the matching recovery) on the clock, returning the number of
// clock events created. An empty plan arms nothing: zero events, zero
// state, zero overhead.
func (e *Engine) Arm(p Plan) int {
	events := 0
	for _, f := range p.sorted() {
		f := f
		e.clk.At(f.At, "chaos.inject "+f.Kind.String()+" "+f.Target, func() { e.inject(f) })
		events++
		if f.Duration > 0 {
			e.clk.At(f.At+f.Duration, "chaos.recover "+f.Kind.String()+" "+f.Target, func() { e.recover(f) })
			events++
		}
	}
	return events
}

// inject applies one fault at its scheduled instant.
func (e *Engine) inject(f Fault) {
	var err error
	e.mu.Lock()
	switch f.Kind {
	case KindHostCrash:
		if h := e.hosts; h != nil {
			e.mu.Unlock()
			err = h.FailHost(f.Target)
			e.mu.Lock()
		}
	case KindRankFail:
		if r, perr := strconv.Atoi(f.Target); perr == nil {
			e.ranks[r] = true
		} else {
			err = perr
		}
	case KindPreempt:
		if p := e.spot; p != nil {
			e.mu.Unlock()
			err = p.Preempt(f.Target)
			e.mu.Lock()
		}
	}
	if err != nil {
		e.injectFails++
	} else {
		e.injected++
		e.live = append(e.live, ActiveFault{Fault: f, InjectedAt: e.clk.Now()})
	}
	e.mu.Unlock()
	if err != nil {
		// A failed injection (host already down, instance already gone)
		// is interesting but not fatal: the plan keeps running.
		e.tel.Counter("chaos.inject_errors").Inc()
		e.log.Warn("fault injection failed",
			logging.Str("kind", f.Kind.String()),
			logging.Str("target", f.Target),
			logging.Str("error", err.Error()))
		return
	}
	e.tel.Counter("chaos.injected").Inc()
	e.log.Warn("fault injected",
		logging.Str("kind", f.Kind.String()),
		logging.Str("target", f.Target),
		logging.Float("duration", f.Duration))
}

// recover clears one fault when its Duration elapses.
func (e *Engine) recover(f Fault) {
	var err error
	e.mu.Lock()
	switch f.Kind {
	case KindHostCrash:
		if h := e.hosts; h != nil {
			e.mu.Unlock()
			err = h.RecoverHost(f.Target)
			e.mu.Lock()
		}
	case KindRankFail:
		if r, perr := strconv.Atoi(f.Target); perr == nil {
			delete(e.ranks, r)
		}
	case KindPreempt:
		if p := e.spot; p != nil {
			e.mu.Unlock()
			err = p.Release(f.Target)
			e.mu.Lock()
		}
	}
	if err == nil {
		e.recovered++
		for i := range e.live {
			if e.live[i].Fault.At == f.At && e.live[i].Fault.Kind == f.Kind && e.live[i].Fault.Target == f.Target {
				e.live = append(e.live[:i], e.live[i+1:]...)
				break
			}
		}
	}
	e.mu.Unlock()
	if err != nil {
		// E.g. the host was already recovered by an operator command.
		return
	}
	e.tel.Counter("chaos.recovered").Inc()
	e.log.Info("fault recovered",
		logging.Str("kind", f.Kind.String()),
		logging.Str("target", f.Target))
}

// RankDead reports whether a collective rank is currently failed.
func (e *Engine) RankDead(rank int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ranks[rank]
}

// Active returns the currently-applied faults (injected, not yet
// recovered) in injection order. Faults without a Duration never
// recover, so they stay in this view for the rest of the run.
func (e *Engine) Active() []ActiveFault {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ActiveFault(nil), e.live...)
}

// Stats returns lifetime injection counts: applied faults, recoveries,
// and injections that failed (target missing or already down).
func (e *Engine) Stats() (injected, recovered, injectErrors int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.injected, e.recovered, e.injectFails
}

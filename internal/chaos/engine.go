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

// InstanceFailer handles instance-crash faults; *cloud.Cloud satisfies it.
type InstanceFailer interface {
	FailInstance(id string) error
}

// Preempter handles spot-preemption faults; *cloud.SpotMarket satisfies
// it. Preempt shrinks a pool's capacity by one (the market notices and
// then reclaims its newest spot instance); Release returns the slot when
// the fault's Duration elapses.
type Preempter interface {
	Preempt(pool string) error
	Release(pool string) error
}

// LinkFault is the current degradation on one network link. The zero
// value means healthy.
type LinkFault struct {
	LatencyFactor float64 // multiplier on base latency; 0 or 1 = nominal
	DropProb      float64 // packet-loss probability
}

// Degraded reports whether the link is currently impaired.
func (l LinkFault) Degraded() bool { return l.LatencyFactor > 1 || l.DropProb > 0 }

// VolumeFault is the current state of one block-storage volume. The zero
// value means healthy.
type VolumeFault struct {
	SlowFactor float64 // multiplier on I/O time; 0 or 1 = nominal
	Failed     bool    // hard failure: I/O errors
}

// Engine arms a Plan against a simulation: crash faults are delegated to
// the registered failers, while degradation faults (links, volumes, dead
// ranks) are recorded in registries that the affected subsystems query.
// All scheduling happens on the shared simclock, so injections interleave
// deterministically with the rest of the simulation.
type Engine struct {
	clk *simclock.Clock
	tel *telemetry.Bus
	log *logging.Component // "chaos" stream; nil no-ops

	mu    sync.Mutex
	hosts HostFailer
	insts InstanceFailer
	spot  Preempter
	links map[string]LinkFault
	vols  map[string]VolumeFault
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
		links: map[string]LinkFault{},
		vols:  map[string]VolumeFault{},
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

// SetInstanceFailer registers the target for instance-crash faults.
func (e *Engine) SetInstanceFailer(i InstanceFailer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.insts = i
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
	case KindInstanceCrash:
		if i := e.insts; i != nil {
			e.mu.Unlock()
			err = i.FailInstance(f.Target)
			e.mu.Lock()
		}
	case KindLinkDegrade:
		lf := LinkFault{LatencyFactor: f.Magnitude, DropProb: f.DropProb}
		if lf.LatencyFactor < 1 {
			lf.LatencyFactor = 1
		}
		e.links[f.Target] = lf
	case KindVolumeSlow:
		v := e.vols[f.Target]
		v.SlowFactor = f.Magnitude
		e.vols[f.Target] = v
	case KindVolumeFail:
		v := e.vols[f.Target]
		v.Failed = true
		e.vols[f.Target] = v
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
	case KindInstanceCrash:
		// Instances do not resurrect; the orchestrator replaces them.
	case KindLinkDegrade:
		delete(e.links, f.Target)
	case KindVolumeSlow:
		v := e.vols[f.Target]
		v.SlowFactor = 0
		if !v.Failed {
			delete(e.vols, f.Target)
		} else {
			e.vols[f.Target] = v
		}
	case KindVolumeFail:
		v := e.vols[f.Target]
		v.Failed = false
		if v.SlowFactor <= 1 {
			delete(e.vols, f.Target)
		} else {
			e.vols[f.Target] = v
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

// Link returns the current fault on a named link (zero value = healthy).
func (e *Engine) Link(name string) LinkFault {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.links[name]
}

// VolumeFault reports the injected state of a volume. The signature
// matches blockstore.FaultView, so an *Engine plugs straight into the
// block-storage service.
func (e *Engine) VolumeFault(volumeID string) (slowFactor float64, failed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.vols[volumeID]
	return v.SlowFactor, v.Failed
}

// RankDead reports whether a collective rank is currently failed.
func (e *Engine) RankDead(rank int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ranks[rank]
}

// DeadRanks returns the currently failed ranks in ascending order.
func (e *Engine) DeadRanks() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(e.ranks))
	for r := range e.ranks {
		out = append(out, r)
	}
	// Insertion sort: the set is tiny and this avoids an import.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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

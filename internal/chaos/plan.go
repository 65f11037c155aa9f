// Package chaos is the deterministic fault-injection engine for the
// course platform simulation. The paper's operational story is dominated
// by things going wrong at inconvenient times — reserved GPU nodes dying
// before a student's slot, stragglers stalling distributed training,
// spot capacity reclaimed mid-run — so the simulator needs a way to
// reproduce those incidents exactly.
//
// Two properties are non-negotiable and shape the whole package:
//
//   - Determinism. A Plan is either hand-written or generated from a seed
//     (splitmix/xoshiro via internal/stats); the Engine schedules every
//     injection on the shared simclock. Same seed + same plan ⇒ the same
//     faults at the same virtual instants ⇒ byte-identical resilience
//     summaries across runs.
//   - Zero overhead when off. An empty plan arms zero clock events and
//     touches no shared state, so a chaos-disabled run is event-for-event
//     identical to a build without the package.
//
// Wall-clock time is never consulted; mlsyslint's wallclock check keeps
// it that way.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Kind enumerates the fault classes the engine can inject.
type Kind int

const (
	// KindHostCrash downs a cloud host; every instance on it errors and
	// the host rejects placements until recovery.
	KindHostCrash Kind = iota
	// KindRankFail kills one rank of a collective (straggler taken to
	// its limit); the ring must reform around it.
	KindRankFail
	// KindPreempt shrinks a spot capacity pool by one slot: the market
	// issues an advance notice and then reclaims its newest spot
	// instance through the metering-correct failure path. Duration > 0
	// returns the slot when the fault recovers.
	KindPreempt
)

func (k Kind) String() string {
	switch k {
	case KindHostCrash:
		return "host-crash"
	case KindRankFail:
		return "rank-fail"
	case KindPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled injection.
type Fault struct {
	// At is the injection time in simulated hours.
	At float64
	// Kind selects the fault class.
	Kind Kind
	// Target names the victim: host name, decimal rank number or spot
	// pool name, depending on Kind.
	Target string
	// Duration is hours until automatic recovery; <= 0 means the fault
	// persists until something else (e.g. an operator command) clears it.
	Duration float64
}

// Plan is an ordered fault schedule plus the seed that produced it (0 for
// hand-written plans). Keeping the seed alongside the faults lets reports
// cite exactly which chaos run produced a summary.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// sorted returns the faults ordered by (At, Kind, Target) so arming a
// plan is independent of how it was assembled.
func (p Plan) sorted() []Fault {
	out := append([]Fault(nil), p.Faults...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// GenSpec parameterises Generate. Each category is driven by a mean time
// between faults (MTBF, hours, across the whole target list); a zero MTBF
// or empty target list disables that category. Rank faults are only
// ever hand-written.
type GenSpec struct {
	// Horizon bounds fault injection times to [0, Horizon).
	Horizon float64

	Hosts     []string // host-crash victims
	SpotPools []string // preempt victims (spot pool names)

	HostCrashMTBF float64
	PreemptMTBF   float64

	// MeanRepairHours is the mean injected-fault duration (exponential).
	// Zero means faults are permanent.
	MeanRepairHours float64
}

// Generate builds a random-but-reproducible plan from a seed. Each fault
// category draws from its own RNG split, so adding hosts to the spec does
// not perturb, say, the preemption sequence.
func Generate(seed uint64, spec GenSpec) Plan {
	root := stats.NewRNG(seed)
	p := Plan{Seed: seed}
	gen := func(label uint64, kind Kind, mtbf float64, targets []string) {
		if mtbf <= 0 || len(targets) == 0 {
			return
		}
		r := root.Split(label)
		for t := expDraw(r, mtbf); t < spec.Horizon; t += expDraw(r, mtbf) {
			target := targets[r.Intn(len(targets))]
			if target == "" {
				continue
			}
			dur := 0.0
			if spec.MeanRepairHours > 0 {
				dur = expDraw(r, spec.MeanRepairHours)
			}
			p.Faults = append(p.Faults, Fault{At: t, Kind: kind, Target: target, Duration: dur})
		}
	}
	// A category's split label fixes its fault sequence for a seed:
	// renumbering one would change every plan generated with it. Label 5
	// drew rank faults and stays retired.
	gen(1, KindHostCrash, spec.HostCrashMTBF, spec.Hosts)
	gen(6, KindPreempt, spec.PreemptMTBF, spec.SpotPools)
	p.Faults = p.sorted()
	return p
}

// expDraw samples an exponential with the given mean.
func expDraw(r *stats.RNG, mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) * mean
}

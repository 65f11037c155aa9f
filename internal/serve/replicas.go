package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrNoReplicas is returned by ReplicaSet.Do when no replica has been
// registered.
var ErrNoReplicas = errors.New("serve: no replicas registered")

// ReplicaSet fronts a group of model-serving replicas the way a serving
// gateway fronts Triton instances: requests round-robin across healthy
// replicas, each replica is guarded by a circuit breaker so a crashed or
// flapping backend stops receiving traffic, and when every usable
// replica is saturated the request is shed with an explicit
// ErrOverloaded instead of queueing without bound — the failure mode the
// Unit-6 lab teaches students to prefer over collapse.
type ReplicaSet struct {
	clk       clock.Clock
	threshold int
	cooldown  time.Duration

	// Instrument handles resolved once in NewReplicaSet; nil (no-op)
	// when tel is nil, so the routing path never builds metric names.
	telShed     *telemetry.Counter
	telErrors   *telemetry.Counter
	telRequests *telemetry.Counter
	telOpens    *telemetry.Counter

	mu       sync.Mutex
	replicas []*replica
	rr       int
	shed     int64
}

type replica struct {
	name      string
	capacity  int
	inflight  int
	breaker   *resilience.Breaker
	lastState resilience.BreakerState
}

// NewReplicaSet returns an empty set. Each replica's breaker trips after
// threshold consecutive failures and probes again after cooldown on the
// given clock (nil = machine clock; simulations pass clock.Sim). tel may
// be nil.
func NewReplicaSet(threshold int, cooldown time.Duration, clk clock.Clock, tel *telemetry.Bus) *ReplicaSet {
	if clk == nil {
		clk = clock.System{}
	}
	return &ReplicaSet{
		clk: clk, threshold: threshold, cooldown: cooldown,
		telShed:     tel.Counter("serve.shed"),
		telErrors:   tel.Counter("serve.replica_errors"),
		telRequests: tel.Counter("serve.replica_requests"),
		telOpens:    tel.Counter("serve.breaker_opens"),
	}
}

// Add registers a replica that can hold capacity concurrent requests.
func (rs *ReplicaSet) Add(name string, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.replicas = append(rs.replicas, &replica{
		name:     name,
		capacity: capacity,
		breaker:  resilience.NewBreaker(rs.threshold, rs.cooldown, rs.clk),
	})
}

// Do routes one request: it picks the next replica that is both below
// capacity and admitted by its breaker, runs fn against it, and feeds
// the outcome back into the breaker. When no replica can take the
// request, Do sheds it with ErrOverloaded.
func (rs *ReplicaSet) Do(fn func(replicaName string) error) error {
	rs.mu.Lock()
	if len(rs.replicas) == 0 {
		rs.mu.Unlock()
		return ErrNoReplicas
	}
	var chosen *replica
	n := len(rs.replicas)
	for i := 0; i < n; i++ {
		r := rs.replicas[(rs.rr+i)%n]
		// Capacity check first: a saturated replica must not consume the
		// breaker's half-open probe slot.
		if r.inflight >= r.capacity {
			continue
		}
		if !r.breaker.Allow() {
			continue
		}
		chosen = r
		rs.rr = (rs.rr + i + 1) % n
		break
	}
	if chosen == nil {
		rs.shed++
		rs.mu.Unlock()
		rs.telShed.Inc()
		return ErrOverloaded
	}
	chosen.inflight++
	rs.mu.Unlock()

	err := fn(chosen.name)

	rs.mu.Lock()
	chosen.inflight--
	if err != nil {
		chosen.breaker.Failure()
		rs.telErrors.Inc()
	} else {
		chosen.breaker.Success()
	}
	rs.telRequests.Inc()
	if state := chosen.breaker.State(); state != chosen.lastState {
		chosen.lastState = state
		if state == resilience.Open {
			rs.telOpens.Inc()
		}
	}
	rs.mu.Unlock()
	return err
}

// DoTraced is Do with the routed call recorded as a "serve.replica_call"
// child span of parent: the chosen replica is annotated, and rejections
// are labeled by kind — "rejected" when every replica was saturated or
// circuit-broken (ErrOverloaded), "error" when the call itself failed. A
// nil parent behaves exactly like Do.
func (rs *ReplicaSet) DoTraced(parent *trace.Span, fn func(replicaName string) error) error {
	span := parent.StartChild("serve.replica_call")
	err := rs.Do(func(replicaName string) error {
		span.Annotate(telemetry.String("replica", replicaName))
		return fn(replicaName)
	})
	if err != nil {
		outcome := "error"
		if errors.Is(err, ErrOverloaded) {
			outcome = "rejected"
		}
		span.Annotate(
			telemetry.String("outcome", outcome),
			telemetry.String("error", err.Error()))
	}
	span.Finish()
	return err
}

// Healthy returns how many replicas are currently accepting traffic
// (breaker not open).
func (rs *ReplicaSet) Healthy() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, r := range rs.replicas {
		if r.breaker.State() != resilience.Open {
			n++
		}
	}
	return n
}

// Shed returns how many requests were rejected with ErrOverloaded.
func (rs *ReplicaSet) Shed() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.shed
}

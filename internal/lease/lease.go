// Package lease implements the Blazar-style advance-reservation service
// that Chameleon uses for bare-metal and edge nodes. Reservations are the
// reason the paper's Fig. 1b actuals track expected durations: leased
// instances terminate automatically when the reservation ends, unlike
// on-demand VMs which persist until a student remembers to delete them.
//
// The course workflow modeled here (Section 4 of the paper): course staff
// reserve specific GPU node types for week-long blocks aligned with the
// schedule; students then book short (2–3 hour) slots on those nodes
// without contending with other testbed users.
package lease

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Errors returned by the service.
var (
	ErrNoPool      = errors.New("lease: no pool for node type")
	ErrNoNodeFree  = errors.New("lease: no node free in the requested window")
	ErrBadWindow   = errors.New("lease: reservation end must be after start")
	ErrPastStart   = errors.New("lease: reservation starts in the past")
	ErrOutsideHold = errors.New("lease: window not inside any staff hold")
)

// Reservation is a booked window on one node. When the service has a
// cloud attached, an instance is launched at Start and force-deleted at
// End (automatic termination).
type Reservation struct {
	ID       string
	Project  string
	User     string
	NodeType string
	Node     string
	Start    float64
	End      float64
	Tags     cloud.Tags

	// InstanceID is set once the reservation activates with a cloud
	// attached.
	InstanceID string

	// Tracing handles (nil when the service has no tracer): the root span
	// covers the whole reservation, waitSpan the booking→activation wait,
	// activeSpan the activation→termination window. All are read and
	// written under the service mutex.
	span       *trace.Span
	waitSpan   *trace.Span
	activeSpan *trace.Span
}

// Hours returns the booked duration.
func (r *Reservation) Hours() float64 { return r.End - r.Start }

// overlaps reports whether [s1,e1) and [s2,e2) intersect.
func overlaps(s1, e1, s2, e2 float64) bool { return s1 < e2 && s2 < e1 }

// pool tracks the reservable nodes of one type and their bookings.
type pool struct {
	flavor cloud.Flavor
	nodes  []string
	// byNode holds reservations per node, kept sorted by start.
	byNode map[string][]*Reservation
	// holds are staff blocks restricting access; if non-empty, student
	// bookings must fall entirely inside one hold.
	holds []window
}

type window struct{ start, end float64 }

// Service is the reservation API for one site.
type Service struct {
	mu     sync.Mutex
	clock  *simclock.Clock
	cloud  *cloud.Cloud       // optional: enables auto launch/terminate
	tel    *telemetry.Bus     // nil disables instrumentation
	tracer *trace.Tracer      // nil disables tracing
	log    *logging.Component // "lease" stream; nil no-ops
	pools  map[string]*pool
	nextID int
}

// New returns a lease service. cl may be nil; then reservations are
// calendar-only (no instance lifecycle side effects).
func New(clock *simclock.Clock, cl *cloud.Cloud) *Service {
	return &Service{clock: clock, cloud: cl,
		pools: map[string]*pool{}}
}

// SetTelemetry attaches a telemetry bus; bookings, rejections, and the
// reservation lifecycle (activate/expire) are instrumented. Call
// before concurrent use.
func (s *Service) SetTelemetry(b *telemetry.Bus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = b
}

// SetLogging attaches the structured logger: bookings, rejections, and
// the reservation lifecycle leave queryable "lease" log lines. Call
// before concurrent use.
func (s *Service) SetLogging(lg *logging.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = lg.Component("lease")
}

// SetTracer attaches a tracer: every booking becomes a trace
// ("lease <id>") spanning reservation → activation → auto-termination,
// with the cloud launch call and instance lifetime as child spans. Call
// before concurrent use.
func (s *Service) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// AddPool registers n reservable nodes of the given type. When a cloud is
// attached, matching bare-metal hosts are registered there too so leased
// instances have somewhere to land.
func (s *Service) AddPool(flavor cloud.Flavor, n int) {
	s.mu.Lock()
	p := &pool{flavor: flavor, byNode: map[string][]*Reservation{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%02d", flavor.Name, i)
		p.nodes = append(p.nodes, name)
	}
	s.pools[flavor.Name] = p
	s.mu.Unlock()
	if s.cloud != nil {
		s.cloud.AddBareMetal(n, flavor)
	}
}

// AddStaffHold records a staff block [start, end) on a node type during
// which students may book; outside holds, booking on that type fails.
// This mirrors the paper's arrangement where Chameleon staff temporarily
// restricted GPU nodes to the course project for week-long windows.
func (s *Service) AddStaffHold(nodeType string, start, end float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[nodeType]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoPool, nodeType)
	}
	p.holds = append(p.holds, window{start, end})
	return nil
}

// Spec describes a booking request.
type Spec struct {
	Project  string
	User     string
	NodeType string
	Start    float64
	End      float64
	Tags     cloud.Tags
}

// Book reserves any free node of the requested type for [Start, End).
// If the pool has staff holds, the window must fall inside one.
func (s *Service) Book(spec Spec) (*Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bookLocked(spec)
}

func (s *Service) bookLocked(spec Spec) (*Reservation, error) {
	r, err := s.tryBookLocked(spec)
	if err != nil {
		s.tel.Counter("lease.rejections").Inc()
		s.log.Warn("booking rejected",
			logging.Str("node_type", spec.NodeType),
			logging.Str("user", spec.User),
			logging.Str("reason", err.Error()))
		return nil, err
	}
	// Skip building bus names and attributes when no bus is attached.
	if s.tel != nil {
		s.tel.Counter("lease.bookings").Inc()
		s.tel.Counter(telemetry.Labeled("lease.bookings",
			telemetry.String("node_type", r.NodeType),
			telemetry.String("project", r.Project))).Inc()
		s.tel.Histogram("lease.duration_hours", telemetry.LinearBuckets(1, 1, 12)).Observe(r.Hours())
	}
	s.log.InfoT(r.span, "reservation booked",
		logging.Str("id", r.ID),
		logging.Str("node", r.Node),
		logging.Float("start", r.Start),
		logging.Float("end", r.End))
	return r, nil
}

func (s *Service) tryBookLocked(spec Spec) (*Reservation, error) {
	// Written so that NaN fails both tests: a NaN window would never
	// activate, and its events would stall every later lease.
	if !(spec.End > spec.Start) || math.IsInf(spec.End, 1) {
		return nil, ErrBadWindow
	}
	// The lifecycle is driven by clock events; scheduling one in the past
	// would panic the clock, so reject it here as a booking error.
	if now := s.clock.Now(); !(spec.Start >= now) {
		return nil, fmt.Errorf("%w: start %.1f < now %.1f", ErrPastStart, spec.Start, now)
	}
	p, ok := s.pools[spec.NodeType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPool, spec.NodeType)
	}
	if len(p.holds) > 0 && !insideAnyHold(p.holds, spec.Start, spec.End) {
		return nil, fmt.Errorf("%w: [%.1f, %.1f) on %s", ErrOutsideHold, spec.Start, spec.End, spec.NodeType)
	}
	node := ""
	for _, n := range p.nodes {
		if nodeFree(p.byNode[n], spec.Start, spec.End) {
			node = n
			break
		}
	}
	if node == "" {
		return nil, fmt.Errorf("%w: %s [%.1f, %.1f)", ErrNoNodeFree, spec.NodeType, spec.Start, spec.End)
	}
	s.nextID++
	// The reservation shares the caller's tags: they cannot change, so
	// neither can its attribution or that of the usage metered from it.
	r := &Reservation{
		ID:      fmt.Sprintf("lease-%06d", s.nextID),
		Project: spec.Project, User: spec.User,
		NodeType: spec.NodeType, Node: node,
		Start: spec.Start, End: spec.End,
		Tags: spec.Tags,
	}
	p.byNode[node] = insertSorted(p.byNode[node], r)
	// The trace starts at booking: the paper's cost question ("why did
	// this slot cost what it cost") begins when the student books, not
	// when the node activates.
	r.span = s.tracer.StartTrace("lease "+r.ID,
		telemetry.String("user", r.User),
		telemetry.String("node_type", r.NodeType),
		telemetry.String("node", r.Node))
	r.waitSpan = r.span.StartChild("lease.wait")
	s.scheduleLifecycleLocked(r, p.flavor)
	return r, nil
}

// scheduleLifecycleLocked arms the launch/terminate events when a cloud
// is attached. Activation launches the pool's flavor: AddPool registered
// the matching bare-metal hosts for it.
func (s *Service) scheduleLifecycleLocked(r *Reservation, flavor cloud.Flavor) {
	if s.cloud == nil {
		return
	}
	var start func(retries int)
	start = func(retries int) {
		s.mu.Lock()
		span, waitSpan := r.span, r.waitSpan
		s.mu.Unlock()
		inst, err := s.cloud.Launch(cloud.LaunchSpec{
			Project: r.Project,
			Name:    r.User + "-" + r.NodeType,
			Flavor:  flavor,
			Tags:    r.Tags,
			Span:    span,
		})
		if errors.Is(err, cloud.ErrNoCapacity) && retries > 0 {
			// Back-to-back reservations share a boundary instant: the
			// predecessor's auto-delete event is queued at the same
			// virtual time but may not have run yet. Requeue at the same
			// timestamp; the delete (already enqueued) runs first.
			s.clock.At(s.clock.Now(), "lease.retry", func() { start(retries - 1) })
			return
		}
		if err != nil {
			// Pool accounting used to guarantee capacity here, but hosts
			// can crash now (cloud.FailHost / the chaos engine), so a
			// failed activation is a legitimate outcome: record it and
			// leave the reservation instance-less instead of panicking.
			// Students saw exactly this on Chameleon when a reserved node
			// died before their slot.
			s.tel.Counter("lease.launch_failures").Inc()
			s.log.ErrorT(span, "reserved node failed to activate",
				logging.Str("id", r.ID),
				logging.Str("node", r.Node),
				logging.Str("reason", err.Error()))
			now := s.clock.Now()
			waitSpan.Annotate(telemetry.String("error", err.Error()))
			waitSpan.FinishAt(now)
			span.Annotate(telemetry.String("error", err.Error()))
			span.FinishAt(now)
			return
		}
		now := s.clock.Now()
		waitSpan.Annotate(telemetry.String("instance", inst.ID))
		waitSpan.FinishAt(now)
		active := span.StartChildAt("lease.active", now,
			telemetry.String("instance", inst.ID))
		s.mu.Lock()
		r.InstanceID = inst.ID
		r.activeSpan = active
		s.mu.Unlock()
		s.tel.Counter("lease.activations").Inc()
		s.log.InfoT(active, "reservation active",
			logging.Str("id", r.ID),
			logging.Str("node", r.Node),
			logging.Str("instance", inst.ID))
		// Automatic termination at reservation end: the defining
		// difference from on-demand instances.
		s.cloud.DeleteAt(inst.ID, r.End)
		s.clock.At(r.End, "lease.expire", func() {
			s.mu.Lock()
			root, active := r.span, r.activeSpan
			s.mu.Unlock()
			s.tel.Counter("lease.expiries").Inc()
			s.log.Info("reservation expired",
				logging.Str("id", r.ID),
				logging.Str("node", r.Node))
			active.FinishAt(s.clock.Now())
			root.FinishAt(s.clock.Now())
		})
	}
	s.clock.At(r.Start, "lease.start", func() { start(8) })
}

// FindSlot returns the earliest start >= earliest at which some node of
// nodeType is free for duration hours (and, if holds exist, the window
// fits in a hold). It returns an error if no slot exists before horizon.
//
//lint:ignore deadcode FuzzFindSlot checks the slot search against findSlotRef through it
func (s *Service) FindSlot(nodeType string, earliest, duration, horizon float64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findSlotLocked(nodeType, earliest, duration, horizon)
}

// findSlotLocked searches node by node and keeps the earliest start. A
// feasible window on a node stays feasible when it slides back to the
// node's latest candidate at or before it: earliest, one of the node's
// booking ends, or a hold start. So the earliest feasible candidate over
// all nodes is the earliest feasible start.
func (s *Service) findSlotLocked(nodeType string, earliest, duration, horizon float64) (float64, error) {
	p, ok := s.pools[nodeType]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoPool, nodeType)
	}
	best := math.Inf(1)
	for _, n := range p.nodes {
		if start, ok := p.slotOn(p.byNode[n], earliest, duration, horizon, best); ok {
			best = start
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("%w: %s for %.1fh before %.1f", ErrNoNodeFree, nodeType, duration, horizon)
	}
	return best, nil
}

// slotOn returns the first candidate start below before at which one
// node, whose bookings are list, is free for duration hours inside the
// horizon and, if the pool has holds, inside one. It walks only the
// bookings that end after earliest.
func (p *pool) slotOn(list []*Reservation, earliest, duration, horizon, before float64) (float64, bool) {
	start := earliest
	i := endsAfter(list, start)
	for start < before {
		end := start + duration
		if end > horizon {
			return 0, false
		}
		if (len(p.holds) == 0 || insideAnyHold(p.holds, start, end)) &&
			(i == len(list) || !overlaps(start, end, list[i].Start, list[i].End)) {
			return start, true
		}
		// Next candidate: the next booking end or hold start after start.
		next := math.Inf(1)
		if i < len(list) {
			next = list[i].End
		}
		for _, h := range p.holds {
			if h.start > start && h.start < next {
				next = h.start
			}
		}
		start = next
		for i < len(list) && list[i].End <= start {
			i++
		}
	}
	return 0, false
}

// BookEarliest finds the earliest feasible slot and books it, a common
// studentsim operation. Search and booking share one critical section,
// so concurrent callers never race for the same slot.
func (s *Service) BookEarliest(spec Spec, duration, horizon float64) (*Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start, err := s.findSlotLocked(spec.NodeType, spec.Start, duration, horizon)
	if err != nil {
		return nil, err
	}
	spec.Start = start
	spec.End = start + duration
	return s.bookLocked(spec)
}

// nodeFree reports whether no booking in list overlaps [start, end). Only
// the first booking ending after start can: the ones after it start later.
func nodeFree(list []*Reservation, start, end float64) bool {
	i := endsAfter(list, start)
	return i == len(list) || !overlaps(start, end, list[i].Start, list[i].End)
}

// endsAfter returns the index of the first booking in list that ends
// after t. A node's bookings are disjoint and sorted by start, so they
// are sorted by end too.
func endsAfter(list []*Reservation, t float64) int {
	return sort.Search(len(list), func(i int) bool { return list[i].End > t })
}

func insideAnyHold(holds []window, start, end float64) bool {
	for _, h := range holds {
		if start >= h.start && end <= h.end {
			return true
		}
	}
	return false
}

func insertSorted(list []*Reservation, r *Reservation) []*Reservation {
	i := sort.Search(len(list), func(i int) bool { return list[i].Start >= r.Start })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = r
	return list
}

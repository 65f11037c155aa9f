// Package orchestrator implements the container-orchestration substrate
// students build in Units 2–3: a Kubernetes-style cluster with nodes,
// deployments that reconcile replica counts, pod scheduling with resource
// requests, round-robin services, rolling updates, node-failure
// rescheduling, and a horizontal autoscaler.
//
// Reconciliation is explicit and synchronous: callers (tests, the CI/CD
// engine, the GourmetGram example) invoke Reconcile after mutating
// desired state, which keeps every simulation deterministic while
// preserving the declarative flavor of the real system.
package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/logging"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Errors returned by the cluster API.
var (
	ErrNotFound      = errors.New("orchestrator: not found")
	ErrExists        = errors.New("orchestrator: already exists")
	ErrUnschedulable = errors.New("orchestrator: no node can fit the pod")
)

// PodPhase is the pod lifecycle state.
type PodPhase int

const (
	PodPending PodPhase = iota
	PodRunning
	PodTerminated
)

func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodRunning:
		return "Running"
	case PodTerminated:
		return "Terminated"
	default:
		return fmt.Sprintf("PodPhase(%d)", int(p))
	}
}

// PodSpec declares a container and its resource requests.
type PodSpec struct {
	Image    string
	CPUMilli int // millicores requested
	MemMB    int
	Port     int
}

// Pod is one scheduled replica.
type Pod struct {
	Name       string
	Deployment string
	Spec       PodSpec
	Node       string
	Phase      PodPhase
}

// Deployment declares a desired replica count for a pod template.
type Deployment struct {
	Name     string
	Replicas int
	Spec     PodSpec
}

// Service load-balances requests across a deployment's running pods.
type Service struct {
	Name       string
	Deployment string
	Port       int

	mu sync.Mutex
	rr int
}

// Node is a schedulable worker.
type Node struct {
	Name     string
	CPUMilli int
	MemMB    int
	Ready    bool

	allocCPU int
	allocMem int
}

// FreeCPU returns unallocated millicores.
func (n *Node) FreeCPU() int { return n.CPUMilli - n.allocCPU }

// FreeMem returns unallocated memory in MB.
func (n *Node) FreeMem() int { return n.MemMB - n.allocMem }

func (n *Node) fits(s PodSpec) bool {
	return n.Ready && n.FreeCPU() >= s.CPUMilli && n.FreeMem() >= s.MemMB
}

// Cluster is the orchestrator control plane plus its nodes.
type Cluster struct {
	mu          sync.Mutex
	nodes       map[string]*Node
	deployments map[string]*Deployment
	pods        map[string]*Pod
	services    map[string]*Service
	nextPod     int
	// events records reconciliation actions for observability and tests.
	events []string

	tel    *telemetry.Bus     // nil disables instrumentation
	log    *logging.Component // "orchestrator" stream; nil no-ops
	clk    *simclock.Clock    // nil means "time stands at 0" (MTTR reads 0)
	tracer *trace.Tracer      // nil disables evacuation tracing

	// evacSpans holds, per down node, the open evacuation trace started
	// when SyncFromCloud detected the failure; finished once the following
	// reconcile pass has rescheduled the evicted pods.
	evacSpans map[string]*trace.Span

	// downSince records when each non-ready node went down, so the
	// recovery time of its evicted pods can be measured from the failure
	// instant, not from whenever Reconcile got around to noticing.
	downSince map[string]float64
	// repairs holds, per deployment, the failure times of pods evicted
	// because their node died (FIFO). Each subsequent scale-up pop is a
	// completed repair whose latency feeds the MTTR metric.
	repairs map[string][]float64

	evictions   int64
	reschedules int64
	mttrSum     float64
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{
		nodes:       map[string]*Node{},
		deployments: map[string]*Deployment{},
		pods:        map[string]*Pod{},
		services:    map[string]*Service{},
		downSince:   map[string]float64{},
		repairs:     map[string][]float64{},
		evacSpans:   map[string]*trace.Span{},
	}
}

// SetTelemetry attaches a telemetry bus; reconciliation actions
// (evictions, reschedules, rolling updates) and repair latency are
// instrumented. Call before concurrent use.
func (c *Cluster) SetTelemetry(b *telemetry.Bus) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = b
}

// SetLogging attaches the structured logger; node state changes,
// evictions, rolling updates, and reschedules leave "orchestrator" log
// lines. Call before concurrent use.
func (c *Cluster) SetLogging(lg *logging.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log = lg.Component("orchestrator")
}

// SetTracer attaches a tracer: every node failure SyncFromCloud detects
// becomes an "evacuate <node>" trace, backdated to the crash instant,
// with detection lag and rescheduling as child spans. Call before
// concurrent use.
func (c *Cluster) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// SetClock attaches the simulation clock used to timestamp failures and
// measure repair latency. Without it the cluster still works, but every
// MTTR sample reads 0.
func (c *Cluster) SetClock(clk *simclock.Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clk = clk
}

func (c *Cluster) nowLocked() float64 {
	if c.clk == nil {
		return 0
	}
	return c.clk.Now()
}

// ResilienceStats summarises failure handling since cluster creation.
type ResilienceStats struct {
	Evictions   int64   // pods lost to node failures
	Reschedules int64   // replacement pods started after such evictions
	MeanMTTRHrs float64 // mean eviction -> replacement latency (sim hours)
}

// Resilience returns the cluster's failure-handling counters.
func (c *Cluster) Resilience() ResilienceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ResilienceStats{Evictions: c.evictions, Reschedules: c.reschedules}
	if c.reschedules > 0 {
		s.MeanMTTRHrs = c.mttrSum / float64(c.reschedules)
	}
	return s
}

// AddNode registers a ready worker node.
func (c *Cluster) AddNode(name string, cpuMilli, memMB int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &Node{Name: name, CPUMilli: cpuMilli, MemMB: memMB, Ready: true}
	c.nodes[name] = n
	return n
}

// SetNodeReady marks a node up or down. Downed nodes terminate their pods
// at the next Reconcile, which then reschedules replacements elsewhere —
// the failure-recovery behavior the labs demonstrate.
func (c *Cluster) SetNodeReady(name string, ready bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: node %q", ErrNotFound, name)
	}
	if n.Ready == ready {
		return nil
	}
	n.Ready = ready
	if ready {
		delete(c.downSince, name)
		c.tel.Emit("orchestrator.node_up", telemetry.String("node", name),
			telemetry.Float("t", c.nowLocked()))
		c.log.Info("node ready", logging.Str("node", name))
	} else {
		c.downSince[name] = c.nowLocked()
		c.tel.Counter("orchestrator.node_failures").Inc()
		c.tel.Emit("orchestrator.node_down", telemetry.String("node", name),
			telemetry.Float("t", c.nowLocked()))
		c.log.Error("node down", logging.Str("node", name))
	}
	return nil
}

// Apply creates or updates a deployment's desired state. An image change
// is applied as a rolling update at the next Reconcile.
func (c *Cluster) Apply(d Deployment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	existing, ok := c.deployments[d.Name]
	if ok {
		*existing = d
	} else {
		dd := d
		c.deployments[d.Name] = &dd
	}
}

// DeleteDeployment removes a deployment and terminates its pods.
func (c *Cluster) DeleteDeployment(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.deployments[name]; !ok {
		return fmt.Errorf("%w: deployment %q", ErrNotFound, name)
	}
	delete(c.deployments, name)
	delete(c.repairs, name) // outstanding repairs die with the deployment
	for _, p := range c.pods {
		if p.Deployment == name {
			c.terminateLocked(p)
		}
	}
	return nil
}

// Expose creates a service routing to a deployment's pods.
func (c *Cluster) Expose(name, deployment string, port int) (*Service, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.services[name]; ok {
		return nil, fmt.Errorf("%w: service %q", ErrExists, name)
	}
	if _, ok := c.deployments[deployment]; !ok {
		return nil, fmt.Errorf("%w: deployment %q", ErrNotFound, deployment)
	}
	s := &Service{Name: name, Deployment: deployment, Port: port}
	c.services[name] = s
	return s, nil
}

// GetService looks up a service.
func (c *Cluster) GetService(name string) (*Service, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.services[name]
	if !ok {
		return nil, fmt.Errorf("%w: service %q", ErrNotFound, name)
	}
	return s, nil
}

// Reconcile drives actual state toward desired state: it terminates pods
// on failed nodes and pods with stale specs (rolling update), scales
// deployments up or down, and schedules pending pods. It returns the
// number of actions taken; callers loop until it returns 0 to reach a
// fixed point.
func (c *Cluster) Reconcile() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	actions := 0

	// 1. Terminate pods on non-ready nodes. Iterate in name order so the
	// eviction (and therefore repair-queue) sequence is deterministic.
	for _, name := range c.podNamesLocked() {
		p := c.pods[name]
		if p.Phase != PodRunning {
			continue
		}
		if n, ok := c.nodes[p.Node]; !ok || !n.Ready {
			node := p.Node
			c.terminateLocked(p)
			c.events = append(c.events, fmt.Sprintf("evict %s (node down)", p.Name))
			// A pod lost to hardware is "broken" from the moment the
			// node died, not the moment we noticed.
			failedAt, ok := c.downSince[node]
			if !ok {
				failedAt = c.nowLocked()
			}
			c.repairs[p.Deployment] = append(c.repairs[p.Deployment], failedAt)
			c.evictions++
			c.tel.Counter("orchestrator.evictions").Inc()
			c.tel.Emit("orchestrator.evict",
				telemetry.String("pod", p.Name),
				telemetry.String("node", node),
				telemetry.Float("t", c.nowLocked()))
			c.log.Warn("pod evicted: node down",
				logging.Str("pod", p.Name),
				logging.Str("node", node))
			actions++
		}
	}

	for _, name := range c.deploymentNamesLocked() {
		d := c.deployments[name]
		live := c.livePodsLocked(name)

		// 2. Rolling update: terminate at most one stale pod per pass so
		// capacity is replaced incrementally.
		for _, p := range live {
			if p.Spec != d.Spec {
				c.terminateLocked(p)
				c.events = append(c.events, fmt.Sprintf("roll %s (spec change)", p.Name))
				c.tel.Counter("orchestrator.rolling_updates").Inc()
				c.tel.Emit("orchestrator.rolling_update",
					telemetry.String("pod", p.Name),
					telemetry.String("deployment", d.Name),
					telemetry.Float("t", c.nowLocked()))
				c.log.Info("rolling update",
					logging.Str("pod", p.Name),
					logging.Str("deployment", d.Name))
				actions++
				break
			}
		}
		live = c.livePodsLocked(name)

		// 3. Scale down extras.
		for len(live) > d.Replicas {
			p := live[len(live)-1]
			c.terminateLocked(p)
			c.events = append(c.events, fmt.Sprintf("scale down %s", p.Name))
			live = live[:len(live)-1]
			actions++
		}

		// 4. Scale up: schedule new pods.
		for len(live) < d.Replicas {
			p, err := c.scheduleLocked(d)
			if err != nil {
				c.events = append(c.events, fmt.Sprintf("pending %s: %v", d.Name, err))
				c.tel.Counter("orchestrator.unschedulable").Inc()
				break // leave the deployment under-replicated
			}
			live = append(live, p)
			c.events = append(c.events, fmt.Sprintf("start %s on %s", p.Name, p.Node))
			// If this deployment has outstanding failure-driven repairs,
			// this pod completes the oldest one; its latency since the
			// node death is one MTTR sample.
			if q := c.repairs[d.Name]; len(q) > 0 {
				mttr := c.nowLocked() - q[0]
				c.repairs[d.Name] = q[1:]
				c.reschedules++
				c.mttrSum += mttr
				c.tel.Counter("orchestrator.reschedules").Inc()
				c.tel.Histogram("orchestrator.reschedule_latency_hours",
					telemetry.ExpBuckets(0.25, 2, 10)).Observe(mttr)
				c.tel.Emit("orchestrator.reschedule",
					telemetry.String("pod", p.Name),
					telemetry.String("node", p.Node),
					telemetry.Float("mttr_hours", mttr),
					telemetry.Float("t", c.nowLocked()))
				c.log.Info("pod rescheduled",
					logging.Str("pod", p.Name),
					logging.Str("node", p.Node),
					logging.Float("mttr_hours", mttr))
			}
			actions++
		}
	}
	return actions
}

// ReconcileToFixedPoint loops Reconcile until no more progress; it
// returns the total actions taken. The limit guards against livelock
// bugs.
func (c *Cluster) ReconcileToFixedPoint() int {
	total := 0
	for i := 0; i < 1000; i++ {
		n := c.Reconcile()
		total += n
		if n == 0 {
			return total
		}
	}
	panic("orchestrator: reconcile did not converge in 1000 iterations")
}

func (c *Cluster) podNamesLocked() []string {
	names := make([]string, 0, len(c.pods))
	for n := range c.pods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Cluster) deploymentNamesLocked() []string {
	names := make([]string, 0, len(c.deployments))
	for n := range c.deployments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Cluster) livePodsLocked(deployment string) []*Pod {
	var out []*Pod
	for _, p := range c.pods {
		if p.Deployment == deployment && p.Phase == PodRunning {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// scheduleLocked places one new pod using spread-by-least-allocated.
func (c *Cluster) scheduleLocked(d *Deployment) (*Pod, error) {
	var best *Node
	names := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		n := c.nodes[name]
		if !n.fits(d.Spec) {
			continue
		}
		if best == nil || n.allocCPU < best.allocCPU {
			best = n
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %s requests %dm/%dMi", ErrUnschedulable, d.Name, d.Spec.CPUMilli, d.Spec.MemMB)
	}
	c.nextPod++
	p := &Pod{
		Name:       fmt.Sprintf("%s-%05d", d.Name, c.nextPod),
		Deployment: d.Name,
		Spec:       d.Spec,
		Node:       best.Name,
		Phase:      PodRunning,
	}
	best.allocCPU += d.Spec.CPUMilli
	best.allocMem += d.Spec.MemMB
	c.pods[p.Name] = p
	return p, nil
}

func (c *Cluster) terminateLocked(p *Pod) {
	if p.Phase == PodTerminated {
		return
	}
	if n, ok := c.nodes[p.Node]; ok {
		n.allocCPU -= p.Spec.CPUMilli
		n.allocMem -= p.Spec.MemMB
	}
	p.Phase = PodTerminated
	delete(c.pods, p.Name)
}

// Pods returns running pods of a deployment ("" = all), sorted by name.
func (c *Cluster) Pods(deployment string) []*Pod {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Pod
	for _, p := range c.pods {
		if deployment == "" || p.Deployment == deployment {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Events drains the reconciliation log.
func (c *Cluster) Events() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.events
	c.events = nil
	return ev
}

// Route returns the pod that receives the next request to the service,
// round-robin over running pods; an error when none are available.
func (c *Cluster) Route(serviceName string) (*Pod, error) {
	c.mu.Lock()
	s, ok := c.services[serviceName]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: service %q", ErrNotFound, serviceName)
	}
	pods := c.livePodsLocked(s.Deployment)
	c.mu.Unlock()
	if len(pods) == 0 {
		return nil, fmt.Errorf("%w: service %q has no ready endpoints", ErrNotFound, serviceName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := pods[s.rr%len(pods)]
	s.rr++
	return p, nil
}

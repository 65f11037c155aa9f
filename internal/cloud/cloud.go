package cloud

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

// Common API errors.
var (
	ErrNotFound       = errors.New("cloud: resource not found")
	ErrNoCapacity     = errors.New("cloud: no host has capacity for the requested flavor")
	ErrAlreadyDeleted = errors.New("cloud: instance already deleted")
	ErrIPInUse        = errors.New("cloud: floating IP already associated")
)

// Project is a tenancy: a quota, current usage, and ownership of
// resources. The course ran as a single large project; per-student
// attribution happens through tags.
type Project struct {
	Name  string
	Quota Quota
	Usage Usage
}

// Cloud is one simulated site (region): hosts, projects, instances,
// virtual networking, and the usage meter. All methods are safe for
// concurrent use.
type Cloud struct {
	mu    sync.Mutex
	clock *simclock.Clock
	name  string

	placer    Placer
	hosts     []*Host
	projects  map[string]*Project
	instances map[string]*Instance
	networks  map[string]*Network
	subnets   map[string]*Subnet
	routers   map[string]*Router
	fips      map[string]*FloatingIP
	secgroups map[string]*SecurityGroup
	meter     *Meter
	images    map[string]*Image

	fipRecords map[string]*UsageRecord // fip ID -> open meter record
	instRecs   map[string]*UsageRecord // instance ID -> open meter record
	instSpans  map[string]*trace.Span  // instance ID -> lifetime span (traced launches only)

	spot *SpotMarket // nil until EnableSpot

	tel    *telemetry.Bus     // nil disables instrumentation
	logger *logging.Logger    // nil disables structured logs
	log    *logging.Component // "cloud" stream; nil no-ops

	nextID  int
	nextFIP int
}

// New creates a site named name driven by clock. The default placement
// policy is first-fit; override with SetPlacer.
func New(name string, clock *simclock.Clock) *Cloud {
	return &Cloud{
		clock:      clock,
		name:       name,
		placer:     FirstFit{},
		projects:   map[string]*Project{},
		instances:  map[string]*Instance{},
		networks:   map[string]*Network{},
		subnets:    map[string]*Subnet{},
		routers:    map[string]*Router{},
		fips:       map[string]*FloatingIP{},
		secgroups:  map[string]*SecurityGroup{},
		meter:      &Meter{},
		fipRecords: map[string]*UsageRecord{},
		instRecs:   map[string]*UsageRecord{},
		instSpans:  map[string]*trace.Span{},
	}
}

// Name returns the site name.
func (c *Cloud) Name() string { return c.name }

// Now returns the site's current virtual time.
func (c *Cloud) Now() float64 { return c.clock.Now() }

// Meter exposes the usage meter for aggregation by the cost model.
func (c *Cloud) Meter() *Meter { return c.meter }

// SetTelemetry attaches a telemetry bus; instance and floating-IP
// lifecycle, quota/capacity rejections, and meter open/close are
// instrumented. Call before concurrent use.
func (c *Cloud) SetTelemetry(b *telemetry.Bus) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = b
}

// SetLogging attaches the structured logger: instance lifecycle, host
// failures, and spot-market reclaims leave queryable log lines on the
// "cloud" and "spot" components. Call before concurrent use; a nil
// logger (or never calling this) disables logging with no branches at
// the call sites.
func (c *Cloud) SetLogging(lg *logging.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logger = lg
	c.log = lg.Component("cloud")
	if c.spot != nil {
		c.spot.log = lg.Component("spot")
	}
}

// SetPlacer replaces the placement policy.
func (c *Cloud) SetPlacer(p Placer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.placer = p
}

// AddHost registers a hypervisor or bare-metal node.
func (c *Cloud) AddHost(h *Host) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hosts = append(c.hosts, h)
}

// AddVMCapacity is a convenience that adds n identical hypervisors.
func (c *Cloud) AddVMCapacity(n, vcpusEach, ramGBEach int) {
	for i := 0; i < n; i++ {
		c.AddHost(NewVMHost(fmt.Sprintf("%s-hv-%03d", c.name, i), vcpusEach, ramGBEach))
	}
}

// AddBareMetal adds n reservable nodes of the given type.
func (c *Cloud) AddBareMetal(n int, nodeType Flavor) {
	for i := 0; i < n; i++ {
		c.AddHost(NewBareMetalHost(fmt.Sprintf("%s-%s-%02d", c.name, nodeType.Name, i), nodeType))
	}
}

// Hosts returns a snapshot of registered hosts.
func (c *Cloud) Hosts() []*Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Host(nil), c.hosts...)
}

// CreateProject registers a tenancy with the given quota.
func (c *Cloud) CreateProject(name string, q Quota) *Project {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Project{Name: name, Quota: q}
	c.projects[name] = p
	return p
}

// GetProject looks up a project.
func (c *Cloud) GetProject(name string) (*Project, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[name]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, name)
	}
	return p, nil
}

func (c *Cloud) id(prefix string) string {
	c.nextID++
	return fmt.Sprintf("%s-%06d", prefix, c.nextID)
}

// LaunchSpec describes an instance-creation request.
type LaunchSpec struct {
	Project string
	Name    string
	Flavor  Flavor
	Tags    map[string]string
	// Network to attach; empty uses no fixed network (bare metal nodes
	// on Chameleon sit on a shared provider network).
	NetworkID string
	// Spot requests preemptible capacity: the launch needs a free slot
	// in the flavor's spot pool (EnableSpot + AddPool), is billed at the
	// pool's spot price, and may be reclaimed after an advance notice.
	Spot bool
	// Span, when non-nil, makes the launch traced: the API call becomes a
	// "cloud.launch" child span, the instance's lifetime becomes a
	// "cloud.instance" span finished at delete/failure, and the meter
	// record is tagged with the trace ID so per-trace cost attribution
	// can decompose the bill.
	Span *trace.Span
}

// Launch provisions an instance: quota check, placement, metering. The
// instance is ACTIVE immediately; boot latency is modeled by the caller
// (studentsim folds setup time into lab durations).
func (c *Cloud) Launch(spec LaunchSpec) (*Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	span := spec.Span.StartChild("cloud.launch",
		telemetry.String("project", spec.Project),
		telemetry.String("flavor", spec.Flavor.Name))
	defer span.Finish()
	p, ok := c.projects[spec.Project]
	if !ok {
		err := fmt.Errorf("%w: project %q", ErrNotFound, spec.Project)
		span.Annotate(telemetry.String("error", err.Error()))
		return nil, err
	}
	if err := p.Quota.CanLaunch(p.Usage, spec.Flavor); err != nil {
		c.tel.Counter("cloud.quota_rejections").Inc()
		c.tel.Emit("cloud.quota.reject",
			telemetry.String("project", spec.Project),
			telemetry.String("flavor", spec.Flavor.Name),
			telemetry.String("reason", err.Error()))
		c.log.WarnT(span, "launch rejected: quota",
			logging.Str("project", spec.Project),
			logging.Str("flavor", spec.Flavor.Name))
		span.Annotate(telemetry.String("error", err.Error()))
		return nil, err
	}
	var spotPool *SpotPool
	if spec.Spot {
		if c.spot == nil {
			span.Annotate(telemetry.String("error", ErrSpotDisabled.Error()))
			return nil, ErrSpotDisabled
		}
		p, ok := c.spot.pools[spec.Flavor.Name]
		if !ok {
			err := fmt.Errorf("%w: %q", ErrNoSpotPool, spec.Flavor.Name)
			span.Annotate(telemetry.String("error", err.Error()))
			return nil, err
		}
		if p.active >= p.Capacity {
			c.tel.Counter("cloud.spot_capacity_rejections").Inc()
			c.tel.Emit("cloud.spot.reject",
				telemetry.String("pool", spec.Flavor.Name),
				telemetry.String("project", spec.Project),
				telemetry.Float("t", c.clock.Now()))
			err := fmt.Errorf("%w: pool %q (%d/%d in use)",
				ErrNoSpotCapacity, spec.Flavor.Name, p.active, p.Capacity)
			span.Annotate(telemetry.String("error", err.Error()))
			return nil, err
		}
		spotPool = p
	}
	host := c.placer.Place(c.hosts, spec.Flavor)
	if host == nil {
		c.tel.Counter("cloud.capacity_rejections").Inc()
		c.tel.Emit("cloud.capacity.reject",
			telemetry.String("project", spec.Project),
			telemetry.String("flavor", spec.Flavor.Name))
		c.log.WarnT(span, "launch rejected: no capacity",
			logging.Str("project", spec.Project),
			logging.Str("flavor", spec.Flavor.Name))
		err := fmt.Errorf("%w (flavor %s)", ErrNoCapacity, spec.Flavor.Name)
		span.Annotate(telemetry.String("error", err.Error()))
		return nil, err
	}
	inst := &Instance{
		ID:         c.id("inst"),
		Name:       spec.Name,
		Project:    spec.Project,
		Flavor:     spec.Flavor,
		State:      StateActive,
		Spot:       spec.Spot,
		Tags:       copyTags(spec.Tags),
		LaunchedAt: c.clock.Now(),
		DeletedAt:  -1,
		FailedAt:   -1,
	}
	if spec.NetworkID != "" {
		n, ok := c.networks[spec.NetworkID]
		if !ok || len(n.Subnets) == 0 {
			return nil, fmt.Errorf("%w: network %q with a subnet", ErrNotFound, spec.NetworkID)
		}
		inst.FixedIP = n.Subnets[0].allocIP()
	}
	host.place(inst)
	p.Usage.Instances++
	p.Usage.Cores += spec.Flavor.VCPUs
	p.Usage.RAMGB += spec.Flavor.RAMGB
	c.instances[inst.ID] = inst
	// API-call phases: placement, boot, and metering-start. In the sim
	// these are instantaneous (boot latency is the caller's model), so the
	// spans record causality, not latency.
	place := span.StartChild("cloud.place", telemetry.String("host", host.Name))
	place.Finish()
	boot := span.StartChild("cloud.boot", telemetry.String("id", inst.ID))
	boot.Finish()
	// Tag the usage record with the trace ID before opening it: the meter
	// copies tags defensively, so report.CostByTrace sees the stamp.
	if tid := spec.Span.TraceID(); tid != 0 {
		inst.Tags[trace.Tag] = tid.String()
	}
	// Spot launches are tagged so the bill can price their records off
	// the pool's price series instead of the on-demand rate.
	if spec.Spot {
		inst.Tags["pricing"] = "spot"
		inst.Tags["pool"] = spec.Flavor.Name
		spotPool.active++
		c.spot.poolOf[inst.ID] = spec.Flavor.Name
	}
	mspan := span.StartChild("cloud.meter")
	c.instRecs[inst.ID] = c.meter.Open(UsageInstance, spec.Project, spec.Flavor.Name, inst.Tags, 1, c.clock.Now())
	mspan.Finish()
	// The instance's lifetime span outlives the API call; it is finished
	// by deleteLocked or failInstanceLocked.
	if spec.Span != nil {
		c.instSpans[inst.ID] = spec.Span.StartChild("cloud.instance "+inst.ID,
			telemetry.String("flavor", spec.Flavor.Name),
			telemetry.String("host", host.Name))
	}
	// The bus handles are nil-safe, but building their names and
	// attributes is not free: skip it all when no bus is attached.
	if c.tel != nil {
		c.tel.Counter("cloud.launches").Inc()
		c.tel.Counter(telemetry.Labeled("cloud.launches",
			telemetry.String("flavor", spec.Flavor.Name),
			telemetry.String("project", spec.Project))).Inc()
		c.tel.Counter("cloud.meter.opened").Inc()
		c.tel.Gauge("cloud.instances_active").Add(1)
		c.tel.Gauge(telemetry.Labeled("cloud.instances_active",
			telemetry.String("flavor", spec.Flavor.Name))).Add(1)
		c.tel.Emit("cloud.instance.launch",
			telemetry.String("id", inst.ID),
			telemetry.String("project", spec.Project),
			telemetry.String("flavor", spec.Flavor.Name),
			telemetry.Float("t", c.clock.Now()))
	}
	c.log.InfoT(span, "instance active",
		logging.Str("id", inst.ID),
		logging.Str("flavor", spec.Flavor.Name),
		logging.Str("host", host.Name))
	return inst, nil
}

// Delete terminates an instance, releasing capacity, quota, any floating
// IP, and closing its meter record.
func (c *Cloud) Delete(instanceID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(instanceID)
}

func (c *Cloud) deleteLocked(instanceID string) error {
	inst, ok := c.instances[instanceID]
	if !ok {
		return fmt.Errorf("%w: instance %q", ErrNotFound, instanceID)
	}
	if inst.State == StateDeleted {
		return ErrAlreadyDeleted
	}
	if inst.State == StateError {
		// Capacity, quota, floating IP and the meter record were all
		// released when the instance failed; deleting the wreck (e.g. a
		// lease expiry racing a host crash) must not free them twice.
		inst.State = StateDeleted
		inst.DeletedAt = c.clock.Now()
		c.tel.Counter("cloud.deletes").Inc()
		c.tel.Emit("cloud.instance.delete",
			telemetry.String("id", inst.ID),
			telemetry.String("project", inst.Project),
			telemetry.String("flavor", inst.Flavor.Name),
			telemetry.String("was", "ERROR"),
			telemetry.Float("t", c.clock.Now()))
		return nil
	}
	if inst.FloatingIP != "" {
		for _, f := range c.fips {
			if f.InstanceID == inst.ID {
				f.InstanceID = ""
				break
			}
		}
		inst.FloatingIP = ""
	}
	for _, h := range c.hosts {
		if h.Name == inst.Host {
			h.evict(inst)
			break
		}
	}
	p := c.projects[inst.Project]
	p.Usage.Instances--
	p.Usage.Cores -= inst.Flavor.VCPUs
	p.Usage.RAMGB -= inst.Flavor.RAMGB
	inst.State = StateDeleted
	inst.DeletedAt = c.clock.Now()
	if c.spot != nil {
		c.spot.releaseInstanceLocked(inst)
	}
	c.meter.Close(c.instRecs[inst.ID], c.clock.Now())
	delete(c.instRecs, inst.ID)
	if sp := c.instSpans[inst.ID]; sp != nil {
		sp.Annotate(telemetry.Float("hours", inst.DeletedAt-inst.LaunchedAt))
		sp.FinishAt(c.clock.Now())
		delete(c.instSpans, inst.ID)
	}
	if c.tel != nil {
		c.tel.Counter("cloud.deletes").Inc()
		c.tel.Counter("cloud.meter.closed").Inc()
		c.tel.Gauge("cloud.instances_active").Add(-1)
		c.tel.Gauge(telemetry.Labeled("cloud.instances_active",
			telemetry.String("flavor", inst.Flavor.Name))).Add(-1)
		c.tel.Histogram("cloud.instance_hours", telemetry.ExpBuckets(0.25, 2, 12)).
			Observe(inst.DeletedAt - inst.LaunchedAt)
		c.tel.Histogram(telemetry.Labeled("cloud.instance_hours",
			telemetry.String("flavor", inst.Flavor.Name)), telemetry.ExpBuckets(0.25, 2, 12)).
			Observe(inst.DeletedAt - inst.LaunchedAt)
		c.tel.Emit("cloud.instance.delete",
			telemetry.String("id", inst.ID),
			telemetry.String("project", inst.Project),
			telemetry.String("flavor", inst.Flavor.Name),
			telemetry.Float("hours", inst.DeletedAt-inst.LaunchedAt),
			telemetry.Float("t", c.clock.Now()))
	}
	c.log.Info("instance deleted",
		logging.Str("id", inst.ID),
		logging.Str("flavor", inst.Flavor.Name),
		logging.Float("hours", inst.DeletedAt-inst.LaunchedAt))
	return nil
}

// DeleteAt schedules automatic termination (used by the lease system for
// reservation expiry). Deleting an already-deleted instance is a no-op.
func (c *Cloud) DeleteAt(instanceID string, t float64) {
	c.clock.At(t, "cloud.autodelete "+instanceID, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if inst, ok := c.instances[instanceID]; ok && inst.State != StateDeleted {
			_ = c.deleteLocked(instanceID)
		}
	})
}

// Get returns an instance by ID.
func (c *Cloud) Get(instanceID string) (*Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[instanceID]
	if !ok {
		return nil, fmt.Errorf("%w: instance %q", ErrNotFound, instanceID)
	}
	return inst, nil
}

// List returns instances matching the filter (nil = all), sorted by ID
// for deterministic output. The filter runs outside the cloud lock (on a
// snapshot of the instance set), so it may safely call back into the
// Cloud — e.g. to consult quotas — without deadlocking.
func (c *Cloud) List(filter func(*Instance) bool) []*Instance {
	c.mu.Lock()
	all := make([]*Instance, 0, len(c.instances))
	for _, inst := range c.instances {
		all = append(all, inst)
	}
	c.mu.Unlock()
	var out []*Instance
	for _, inst := range all {
		if filter == nil || filter(inst) {
			out = append(out, inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CreateNetwork provisions a tenant network.
func (c *Cloud) CreateNetwork(project, name string, external bool) (*Network, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("networks", p.Usage.Networks, 1, p.Quota.Networks); err != nil {
		return nil, err
	}
	n := &Network{ID: c.id("net"), Name: name, Project: project, External: external}
	c.networks[n.ID] = n
	p.Usage.Networks++
	return n, nil
}

// CreateSubnet attaches an address block to a network.
func (c *Cloud) CreateSubnet(networkID, name, cidr string) (*Subnet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.networks[networkID]
	if !ok {
		return nil, fmt.Errorf("%w: network %q", ErrNotFound, networkID)
	}
	s := &Subnet{ID: c.id("subnet"), Name: name, CIDR: cidr, network: n}
	n.Subnets = append(n.Subnets, s)
	c.subnets[s.ID] = s
	return s, nil
}

// CreateRouter provisions a router, optionally gatewayed to an external
// network.
func (c *Cloud) CreateRouter(project, name string, externalGW *Network) (*Router, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("routers", p.Usage.Routers, 1, p.Quota.Routers); err != nil {
		return nil, err
	}
	r := &Router{ID: c.id("router"), Name: name, Project: project, ExternalGW: externalGW}
	c.routers[r.ID] = r
	p.Usage.Routers++
	return r, nil
}

// AttachInterface connects a subnet to a router.
func (c *Cloud) AttachInterface(routerID, subnetID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.routers[routerID]
	if !ok {
		return fmt.Errorf("%w: router %q", ErrNotFound, routerID)
	}
	s, ok := c.subnets[subnetID]
	if !ok {
		return fmt.Errorf("%w: subnet %q", ErrNotFound, subnetID)
	}
	r.Interfaces = append(r.Interfaces, s)
	return nil
}

// AllocateFloatingIP reserves a public address and starts metering it.
func (c *Cloud) AllocateFloatingIP(project string, tags map[string]string) (*FloatingIP, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("floating_ips", p.Usage.FloatingIPs, 1, p.Quota.FloatingIPs); err != nil {
		return nil, err
	}
	c.nextFIP++
	f := &FloatingIP{
		ID:          c.id("fip"),
		Address:     fmt.Sprintf("129.114.%d.%d", c.nextFIP/250, c.nextFIP%250+2),
		Project:     project,
		AllocatedAt: c.clock.Now(),
		ReleasedAt:  -1,
	}
	c.fips[f.ID] = f
	p.Usage.FloatingIPs++
	c.fipRecords[f.ID] = c.meter.Open(UsageFloatingIP, project, "", tags, 1, c.clock.Now())
	c.tel.Counter("cloud.fip_allocations").Inc()
	c.tel.Counter("cloud.meter.opened").Inc()
	c.tel.Emit("cloud.fip.allocate",
		telemetry.String("id", f.ID),
		telemetry.String("project", project),
		telemetry.Float("t", c.clock.Now()))
	return f, nil
}

// AssociateFloatingIP binds an address to an instance.
func (c *Cloud) AssociateFloatingIP(fipID, instanceID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fips[fipID]
	if !ok {
		return fmt.Errorf("%w: floating IP %q", ErrNotFound, fipID)
	}
	if f.InstanceID != "" {
		return ErrIPInUse
	}
	inst, ok := c.instances[instanceID]
	if !ok || inst.State == StateDeleted {
		return fmt.Errorf("%w: instance %q", ErrNotFound, instanceID)
	}
	f.InstanceID = instanceID
	inst.FloatingIP = f.Address
	return nil
}

// ReleaseFloatingIP returns the address to the pool and closes metering.
func (c *Cloud) ReleaseFloatingIP(fipID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fips[fipID]
	if !ok {
		return fmt.Errorf("%w: floating IP %q", ErrNotFound, fipID)
	}
	if f.InstanceID != "" {
		if inst, ok := c.instances[f.InstanceID]; ok {
			inst.FloatingIP = ""
		}
	}
	f.ReleasedAt = c.clock.Now()
	delete(c.fips, f.ID)
	c.projects[f.Project].Usage.FloatingIPs--
	c.meter.Close(c.fipRecords[f.ID], c.clock.Now())
	delete(c.fipRecords, f.ID)
	c.tel.Counter("cloud.fip_releases").Inc()
	c.tel.Counter("cloud.meter.closed").Inc()
	c.tel.Emit("cloud.fip.release",
		telemetry.String("id", f.ID),
		telemetry.String("project", f.Project),
		telemetry.Float("t", c.clock.Now()))
	return nil
}

// CreateSecurityGroup provisions a named rule set.
func (c *Cloud) CreateSecurityGroup(project, name string, rules []SecurityGroupRule) (*SecurityGroup, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("security_groups", p.Usage.SecurityGroups, 1, p.Quota.SecurityGroups); err != nil {
		return nil, err
	}
	g := &SecurityGroup{ID: c.id("sg"), Name: name, Project: project, Rules: rules}
	c.secgroups[g.ID] = g
	p.Usage.SecurityGroups++
	return g, nil
}

func copyTags(tags map[string]string) map[string]string {
	out := map[string]string{}
	for k, v := range tags {
		out[k] = v
	}
	return out
}

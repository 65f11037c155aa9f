package cloud

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
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

// instanceHourBuckets are the bounds of the cloud.instance_hours
// histograms: 0.25 h to 512 h, doubling. Built once, because every
// delete and failure looks the histograms up, and the bus copies the
// bounds only when it first registers one.
var instanceHourBuckets = telemetry.ExpBuckets(0.25, 2, 12)

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

	hosts     []*Host
	projects  map[string]*Project
	instances map[string]*Instance
	launched  []*Instance // every instance ever launched, in launch order
	networks  map[string]*Network
	fips      map[string]*FloatingIP
	meter     *Meter

	fipRecords map[string]*UsageRecord // fip ID -> open meter record
	instRecs   map[string]*UsageRecord // instance ID -> open meter record
	instSpans  map[string]*trace.Span  // instance ID -> lifetime span (traced launches only)

	spot *SpotMarket // nil until EnableSpot

	tel    *telemetry.Bus     // nil disables instrumentation
	logger *logging.Logger    // nil disables structured logs
	log    *logging.Component // "cloud" stream; nil no-ops
	names  map[nameKey]string // labeled instrument names built so far

	nextID  int
	nextFIP int
}

// New creates a site named name driven by clock. Launches place
// instances first-fit.
func New(name string, clock *simclock.Clock) *Cloud {
	return &Cloud{
		clock:      clock,
		name:       name,
		projects:   map[string]*Project{},
		instances:  map[string]*Instance{},
		networks:   map[string]*Network{},
		fips:       map[string]*FloatingIP{},
		meter:      &Meter{},
		fipRecords: map[string]*UsageRecord{},
		instRecs:   map[string]*UsageRecord{},
		instSpans:  map[string]*trace.Span{},
		names:      map[nameKey]string{},
	}
}

// Name returns the site name.
func (c *Cloud) Name() string { return c.name }

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

// id returns the next resource ID: the bytes of
// fmt.Sprintf("%s-%06d", prefix, n), built with one allocation.
func (c *Cloud) id(prefix string) string {
	c.nextID++
	var buf [32]byte
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(c.nextID), 10)
	b := append(append(buf[:0], prefix...), '-')
	for i := len(digits); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}

// nameKey identifies a labeled instrument name by its base and label
// values; project is set only for cloud.launches.
type nameKey struct{ base, flavor, project string }

// flavorName returns base{flavor=…}. Every launch, delete and failure
// emits such names, so each is built on its first use and kept.
func (c *Cloud) flavorName(base, flavor string) string {
	k := nameKey{base: base, flavor: flavor}
	name, ok := c.names[k]
	if !ok {
		name = telemetry.Labeled(base, telemetry.String("flavor", flavor))
		c.names[k] = name
	}
	return name
}

// launchName returns cloud.launches{flavor=…,project=…}, built once per
// flavor and project.
func (c *Cloud) launchName(flavor, project string) string {
	k := nameKey{"cloud.launches", flavor, project}
	name, ok := c.names[k]
	if !ok {
		name = telemetry.Labeled("cloud.launches",
			telemetry.String("flavor", flavor), telemetry.String("project", project))
		c.names[k] = name
	}
	return name
}

// LaunchSpec describes an instance-creation request.
type LaunchSpec struct {
	Project string
	Name    string
	Flavor  Flavor
	Tags    Tags
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
			err := fmt.Errorf("%w: pool %q (%d/%d in use)",
				ErrNoSpotCapacity, spec.Flavor.Name, p.active, p.Capacity)
			span.Annotate(telemetry.String("error", err.Error()))
			return nil, err
		}
		spotPool = p
	}
	host := firstFit(c.hosts, spec.Flavor)
	if host == nil {
		c.tel.Counter("cloud.capacity_rejections").Inc()
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
		Tags:       spec.Tags,
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
	c.launched = append(c.launched, inst)
	// API-call phases: placement, boot, and metering-start. In the sim
	// these are instantaneous (boot latency is the caller's model), so the
	// spans record causality, not latency.
	place := span.StartChild("cloud.place", telemetry.String("host", host.Name))
	place.Finish()
	boot := span.StartChild("cloud.boot", telemetry.String("id", inst.ID))
	boot.Finish()
	// Stamp the trace ID before the usage record opens with the
	// instance's tags, so report.CostByTrace sees it. With leaves the
	// caller's tags as they were.
	if tid := spec.Span.TraceID(); tid != 0 {
		inst.Tags = inst.Tags.With(trace.Tag, tid.String())
	}
	// Spot launches are tagged so the bill can price their records off
	// the pool's price series instead of the on-demand rate.
	if spec.Spot {
		inst.Tags = inst.Tags.With("pricing", "spot", "pool", spec.Flavor.Name)
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
		c.tel.Counter(c.launchName(spec.Flavor.Name, spec.Project)).Inc()
		c.tel.Counter("cloud.meter.opened").Inc()
		c.tel.Gauge("cloud.instances_active").Add(1)
		c.tel.Gauge(c.flavorName("cloud.instances_active", spec.Flavor.Name)).Add(1)
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
	// Before the ERROR branch: an address may be bound to the wreck after
	// its failure released the first one.
	c.unbindFIPLocked(inst)
	if inst.State == StateError {
		// Capacity, quota and the meter record were all released when
		// the instance failed; deleting the wreck (e.g. a lease expiry
		// racing a host crash) must not free them twice.
		inst.State = StateDeleted
		inst.DeletedAt = c.clock.Now()
		c.tel.Counter("cloud.deletes").Inc()
		return nil
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
		c.tel.Gauge(c.flavorName("cloud.instances_active", inst.Flavor.Name)).Add(-1)
		c.tel.Histogram("cloud.instance_hours", instanceHourBuckets).
			Observe(inst.DeletedAt - inst.LaunchedAt)
		c.tel.Histogram(c.flavorName("cloud.instance_hours", inst.Flavor.Name), instanceHourBuckets).
			Observe(inst.DeletedAt - inst.LaunchedAt)
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
	c.clock.At(t, "cloud.autodelete", func() {
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
// Cloud — e.g. to consult quotas — without deadlocking. The snapshot is
// in launch order, which is ID order until IDs outgrow six digits, so
// the sort is nearly free.
func (c *Cloud) List(filter func(*Instance) bool) []*Instance {
	c.mu.Lock()
	all := append([]*Instance(nil), c.launched...)
	c.mu.Unlock()
	out := all[:0]
	for _, inst := range all {
		if filter == nil || filter(inst) {
			out = append(out, inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CreateNetwork provisions a tenant network.
func (c *Cloud) CreateNetwork(project, name string) (*Network, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("networks", p.Usage.Networks, 1, p.Quota.Networks); err != nil {
		return nil, err
	}
	n := &Network{ID: c.id("net"), Name: name, Project: project}
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
	return s, nil
}

// CreateRouter provisions a router.
func (c *Cloud) CreateRouter(project, name string) (*Router, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("routers", p.Usage.Routers, 1, p.Quota.Routers); err != nil {
		return nil, err
	}
	r := &Router{ID: c.id("router"), Name: name, Project: project}
	p.Usage.Routers++
	return r, nil
}

// AllocateFloatingIP reserves a public address and starts metering it
// under tags.
func (c *Cloud) AllocateFloatingIP(project string, tags Tags) (*FloatingIP, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allocateFIPLocked(project, tags)
}

// AllocateFloatingIPFor allocates an address and binds it to an instance
// in one step. It checks the instance first, by the rule
// AssociateFloatingIP applies, so a refused binding allocates and meters
// nothing.
func (c *Cloud) AllocateFloatingIPFor(project, instanceID string, tags Tags) (*FloatingIP, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, err := c.associableLocked(instanceID)
	if err != nil {
		return nil, err
	}
	f, err := c.allocateFIPLocked(project, tags)
	if err != nil {
		return nil, err
	}
	f.InstanceID, inst.FloatingIP = inst.ID, f.Address
	return f, nil
}

func (c *Cloud) allocateFIPLocked(project string, tags Tags) (*FloatingIP, error) {
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
	return f, nil
}

// AssociateFloatingIP binds an address to an instance. An instance holds
// at most one address.
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
	inst, err := c.associableLocked(instanceID)
	if err != nil {
		return err
	}
	f.InstanceID = instanceID
	inst.FloatingIP = f.Address
	return nil
}

// associableLocked returns the instance if an address may be bound to it:
// it exists, is not deleted, and holds no address yet.
func (c *Cloud) associableLocked(instanceID string) (*Instance, error) {
	inst, ok := c.instances[instanceID]
	if !ok || inst.State == StateDeleted {
		return nil, fmt.Errorf("%w: instance %q", ErrNotFound, instanceID)
	}
	if inst.FloatingIP != "" {
		return nil, fmt.Errorf("%w: instance %q holds %s", ErrIPInUse, instanceID, inst.FloatingIP)
	}
	return inst, nil
}

// unbindFIPLocked clears the binding of the one address inst holds.
func (c *Cloud) unbindFIPLocked(inst *Instance) {
	if inst.FloatingIP == "" {
		return
	}
	for _, f := range c.fips {
		if f.InstanceID == inst.ID {
			f.InstanceID = ""
			break
		}
	}
	inst.FloatingIP = ""
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
	return nil
}

// CreateSecurityGroup provisions a named rule set.
func (c *Cloud) CreateSecurityGroup(project, name string) (*SecurityGroup, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if err := check("security_groups", p.Usage.SecurityGroups, 1, p.Quota.SecurityGroups); err != nil {
		return nil, err
	}
	g := &SecurityGroup{ID: c.id("sg"), Name: name, Project: project}
	p.Usage.SecurityGroups++
	return g, nil
}

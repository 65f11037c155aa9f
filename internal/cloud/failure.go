package cloud

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/logging"
	"repro/internal/telemetry"
)

// Failure-injection errors.
var (
	ErrHostDown = errors.New("cloud: host is already down")
	ErrHostUp   = errors.New("cloud: host is not down")
)

// FailHost crashes a host: every running instance on it enters ERROR
// with its end time stamped (metering and billing stop at the failure
// instant), capacity and quota are released, and the host stops
// accepting placements until RecoverHost. This is the API the chaos
// engine drives; cloud.StateError is reachable only through here.
func (c *Cloud) FailHost(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hostLocked(name)
	if h == nil {
		return fmt.Errorf("%w: host %q", ErrNotFound, name)
	}
	if h.Down {
		return fmt.Errorf("%w: %q", ErrHostDown, name)
	}
	h.Down = true
	// Fail instances in ID order so the log record sequence — and
	// therefore every downstream summary — is deterministic.
	ids := make([]string, 0, len(h.instances))
	for id := range h.instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c.failInstanceLocked(h.instances[id], "host "+name+" crashed")
	}
	c.tel.Counter("cloud.host_failures").Inc()
	c.tel.Gauge("cloud.hosts_down").Add(1)
	c.log.Error("host crashed",
		logging.Str("host", name),
		logging.Int("instances_lost", len(ids)))
	return nil
}

// RecoverHost brings a crashed host back into the placement pool. Its
// former instances stay in ERROR (cloud instances do not resurrect; the
// orchestrator reschedules replacements instead).
func (c *Cloud) RecoverHost(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hostLocked(name)
	if h == nil {
		return fmt.Errorf("%w: host %q", ErrNotFound, name)
	}
	if !h.Down {
		return fmt.Errorf("%w: %q", ErrHostUp, name)
	}
	h.Down = false
	c.tel.Counter("cloud.host_recoveries").Inc()
	c.tel.Gauge("cloud.hosts_down").Add(-1)
	c.log.Info("host recovered", logging.Str("host", name))
	return nil
}

// failInstanceLocked moves a running instance to ERROR, releasing
// everything it held: host capacity, project quota, any floating-IP
// association, and its open meter record (closed at the failure time, so
// accrued hours stop here — the HoursAt contract).
func (c *Cloud) failInstanceLocked(inst *Instance, reason string) {
	if !inst.Running() {
		return
	}
	now := c.clock.Now()
	c.unbindFIPLocked(inst)
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
	inst.State = StateError
	inst.FailedAt = now
	inst.FailReason = reason
	if c.spot != nil {
		c.spot.releaseInstanceLocked(inst)
	}
	c.meter.Close(c.instRecs[inst.ID], now)
	delete(c.instRecs, inst.ID)
	if sp := c.instSpans[inst.ID]; sp != nil {
		sp.Annotate(
			telemetry.String("error", reason),
			telemetry.Float("hours", inst.FailedAt-inst.LaunchedAt))
		sp.FinishAt(now)
		delete(c.instSpans, inst.ID)
	}
	if c.tel != nil {
		c.tel.Counter("cloud.instance_failures").Inc()
		c.tel.Counter(c.flavorName("cloud.instance_failures", inst.Flavor.Name)).Inc()
		c.tel.Counter("cloud.meter.closed").Inc()
		c.tel.Gauge("cloud.instances_active").Add(-1)
		c.tel.Gauge(c.flavorName("cloud.instances_active", inst.Flavor.Name)).Add(-1)
		c.tel.Histogram("cloud.instance_hours", instanceHourBuckets).
			Observe(inst.FailedAt - inst.LaunchedAt)
		c.tel.Histogram(c.flavorName("cloud.instance_hours", inst.Flavor.Name), instanceHourBuckets).
			Observe(inst.FailedAt - inst.LaunchedAt)
	}
	c.log.Warn("instance errored",
		logging.Str("id", inst.ID),
		logging.Str("flavor", inst.Flavor.Name),
		logging.Str("reason", reason))
}

// hostLocked finds a host by name (nil if absent).
func (c *Cloud) hostLocked(name string) *Host {
	for _, h := range c.hosts {
		if h.Name == name {
			return h
		}
	}
	return nil
}

package orchestrator

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SyncFromCloud reconciles node readiness with the cloud's view of the
// instances backing them: a cluster node whose backing instance (matched
// by instance Name == node name) has entered ERROR is marked not-ready as
// of the instance's failure time, and a node whose instance is running
// again is marked ready. It then drives reconciliation to a fixed point,
// evacuating pods off dead nodes and rescheduling them elsewhere.
//
// This is the detection half of the failure story: the chaos engine
// crashes hosts at the cloud layer, and the orchestrator notices through
// this sync — exactly the kubelet-heartbeat path the labs hand-wave.
// It returns the number of reconcile actions taken.
func (c *Cluster) SyncFromCloud(cl *cloud.Cloud) int {
	insts := cl.List(func(*cloud.Instance) bool { return true })
	// Several instances can share a node's name over time (the wreck plus
	// its replacement); the node's state follows the best candidate —
	// running beats dead, then newest launch, then ID for determinism.
	byName := map[string]*cloud.Instance{}
	for _, inst := range insts {
		cur, ok := byName[inst.Name]
		if !ok || better(inst, cur) {
			byName[inst.Name] = inst
		}
	}
	c.mu.Lock()
	for _, name := range c.nodeNamesLocked() {
		n := c.nodes[name]
		inst, ok := byName[name]
		if !ok {
			continue // node not cloud-backed; leave it alone
		}
		switch {
		case n.Ready && !inst.Running():
			n.Ready = false
			// Backdate the failure to the instance's stamped end time so
			// MTTR measures from the crash, not from this sync.
			failedAt := inst.FailedAt
			if failedAt < 0 {
				failedAt = inst.DeletedAt
			}
			if failedAt < 0 {
				failedAt = c.nowLocked()
			}
			c.downSince[name] = failedAt
			c.tel.Counter("orchestrator.node_failures").Inc()
			// Evacuation trace, backdated to the crash: the detection span
			// covers the window the failure went unnoticed (the kubelet
			// heartbeat interval the control loop models).
			ev := c.tracer.StartTraceAt("evacuate "+name, failedAt,
				telemetry.String("node", name),
				telemetry.String("reason", inst.FailReason))
			det := ev.StartChildAt("orchestrator.detect", failedAt)
			det.FinishAt(c.nowLocked())
			if c.tracer != nil {
				c.evacSpans[name] = ev
			}
		case !n.Ready && inst.Running():
			n.Ready = true
			delete(c.downSince, name)
		}
	}
	c.mu.Unlock()
	actions := c.ReconcileToFixedPoint()
	c.closeEvacuations(actions)
	return actions
}

// closeEvacuations finishes every open evacuation trace now that
// reconciliation has rescheduled the evicted pods, recording the
// reschedule window and the number of reconcile actions it took.
func (c *Cluster) closeEvacuations(actions int) {
	c.mu.Lock()
	if len(c.evacSpans) == 0 {
		c.mu.Unlock()
		return
	}
	names := make([]string, 0, len(c.evacSpans))
	for n := range c.evacSpans {
		names = append(names, n)
	}
	sort.Strings(names)
	spans := make([]*trace.Span, len(names))
	for i, n := range names {
		spans[i] = c.evacSpans[n]
		delete(c.evacSpans, n)
	}
	now := c.nowLocked()
	c.mu.Unlock()
	for _, ev := range spans {
		resched := ev.StartChild("orchestrator.reschedule",
			telemetry.Int("reconcile_actions", actions))
		resched.FinishAt(now)
		ev.FinishAt(now)
	}
}

func better(a, b *cloud.Instance) bool {
	if a.Running() != b.Running() {
		return a.Running()
	}
	if a.LaunchedAt != b.LaunchedAt {
		return a.LaunchedAt > b.LaunchedAt
	}
	return a.ID > b.ID
}

func (c *Cluster) nodeNamesLocked() []string {
	names := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package report

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// ResilienceStats is the fault-injection scorecard: what the chaos
// engine injected, what the platform noticed, and what recovery cost.
// Every field is read off one telemetry bus, so the summary is exactly
// as trustworthy as the instrumentation — a fault that was injected but
// never detected shows up as a gap between the two columns, which is
// the number the chaos experiments exist to surface.
type ResilienceStats struct {
	FaultsInjected  int64 // chaos.injected
	FaultsRecovered int64 // chaos.recovered
	InjectErrors    int64 // chaos.inject_errors

	NodeFailures  int64 // orchestrator.node_failures — faults the control plane detected
	Evictions     int64 // orchestrator.evictions
	Reschedules   int64 // orchestrator.reschedules
	Unschedulable int64 // orchestrator.unschedulable

	MTTRCount   int64   // reschedules with a measured repair time
	MeanMTTRHrs float64 // mean crash→replacement latency (backdated to the fault)

	LaunchFailures int64 // lease.launch_failures
}

// GatherResilience reads the resilience scorecard from a telemetry bus.
// Missing metrics read as zero, so the function is safe on a bus from a
// chaos-disabled run (everything zero) and on a nil bus.
func GatherResilience(bus *telemetry.Bus) ResilienceStats {
	if bus == nil {
		return ResilienceStats{}
	}
	snap := bus.Snapshot()
	counter := func(name string) int64 {
		m, _ := telemetry.Find(snap, name)
		return int64(m.Value)
	}
	s := ResilienceStats{
		FaultsInjected:  counter("chaos.injected"),
		FaultsRecovered: counter("chaos.recovered"),
		InjectErrors:    counter("chaos.inject_errors"),
		NodeFailures:    counter("orchestrator.node_failures"),
		Evictions:       counter("orchestrator.evictions"),
		Reschedules:     counter("orchestrator.reschedules"),
		Unschedulable:   counter("orchestrator.unschedulable"),
		LaunchFailures:  counter("lease.launch_failures"),
	}
	if m, ok := telemetry.Find(snap, "orchestrator.reschedule_latency_hours"); ok && m.Count > 0 {
		s.MTTRCount = m.Count
		s.MeanMTTRHrs = m.Sum / float64(m.Count)
	}
	return s
}

// ResilienceSummary renders the scorecard. The output is deterministic:
// the same seed and fault plan produce a byte-identical summary, which
// the chaos acceptance test relies on.
func ResilienceSummary(bus *telemetry.Bus) string {
	return Resilience(GatherResilience(bus))
}

// Resilience renders an already-gathered scorecard.
func Resilience(s ResilienceStats) string {
	var b strings.Builder
	b.WriteString("== Resilience ==\n")
	fmt.Fprintf(&b, "faults injected:    %d  (recovered %d, inject errors %d)\n",
		s.FaultsInjected, s.FaultsRecovered, s.InjectErrors)
	fmt.Fprintf(&b, "faults detected:    %d node failures seen by the control plane\n",
		s.NodeFailures)
	fmt.Fprintf(&b, "pods evicted:       %d  rescheduled %d  unschedulable %d\n",
		s.Evictions, s.Reschedules, s.Unschedulable)
	if s.MTTRCount > 0 {
		fmt.Fprintf(&b, "mean MTTR:          %.4f h over %d repairs\n", s.MeanMTTRHrs, s.MTTRCount)
	} else {
		b.WriteString("mean MTTR:          n/a (no repairs measured)\n")
	}
	fmt.Fprintf(&b, "lease launch fails: %d\n", s.LaunchFailures)
	return b.String()
}

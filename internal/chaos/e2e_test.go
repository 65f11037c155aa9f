package chaos_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// platform is the full stack the chaos acceptance tests exercise: a
// cloud with one instance per host, an orchestrator whose nodes are
// those instances, and a deployment scheduled across them.
type platform struct {
	clk  *simclock.Clock
	bus  *telemetry.Bus
	log  *logging.Logger
	cl   *cloud.Cloud
	orch *orchestrator.Cluster
	inst []*cloud.Instance
}

func buildPlatform(t *testing.T, hosts, replicas int) *platform {
	t.Helper()
	p := &platform{clk: simclock.New(), bus: telemetry.New()}
	p.log = logging.New(1, p.clk.Now)
	p.cl = cloud.New("site", p.clk)
	p.cl.SetTelemetry(p.bus)
	p.cl.SetLogging(p.log)
	p.cl.AddVMCapacity(hosts, 8, 16)
	p.cl.CreateProject("mlops", cloud.CourseQuota())
	for i := 0; i < hosts; i++ {
		// M1XLarge fills a host, pinning one instance per hypervisor so a
		// host crash maps to exactly one orchestrator node.
		inst, err := p.cl.Launch(cloud.LaunchSpec{
			Project: "mlops", Name: fmt.Sprintf("node-%d", i), Flavor: cloud.M1XLarge})
		if err != nil {
			t.Fatal(err)
		}
		p.inst = append(p.inst, inst)
	}
	p.orch = orchestrator.NewCluster()
	p.orch.SetClock(p.clk)
	p.orch.SetTelemetry(p.bus)
	p.orch.SetLogging(p.log)
	for _, inst := range p.inst {
		p.orch.AddNode(inst.Name, 4000, 8192)
	}
	p.orch.Apply(orchestrator.Deployment{Name: "train", Replicas: replicas,
		Spec: orchestrator.PodSpec{Image: "train:v1", CPUMilli: 2000, MemMB: 2048}})
	p.orch.ReconcileToFixedPoint()
	return p
}

// The ISSUE's end-to-end acceptance scenario: a host fails under a
// scheduled workload; the orchestrator reschedules every affected pod,
// MTTR is reported, metered hours stop at the failure timestamp, and no
// quota is leaked.
func TestEndToEndHostFailureEvacuation(t *testing.T) {
	p := buildPlatform(t, 3, 2)
	pods := p.orch.Pods("train")
	if len(pods) != 2 {
		t.Fatalf("scheduled %d pods, want 2", len(pods))
	}
	victimNode := pods[0].Node
	var victim *cloud.Instance
	for _, inst := range p.inst {
		if inst.Name == victimNode {
			victim = inst
		}
	}
	if victim == nil {
		t.Fatalf("pod scheduled on unknown node %q", victimNode)
	}

	eng := chaos.New(p.clk, p.bus)
	eng.SetHostFailer(p.cl)
	eng.Arm(chaos.Plan{Seed: 1, Faults: []chaos.Fault{
		{At: 4, Kind: chaos.KindHostCrash, Target: victim.Host, Duration: 3},
	}})
	// The control loop notices an hour after the crash.
	p.clk.At(5, "control-loop", func() { p.orch.SyncFromCloud(p.cl) })
	p.clk.RunUntil(10)

	// The instance died with its host and its meter stopped at t=4.
	if victim.State != cloud.StateError {
		t.Fatalf("victim state = %v, want error", victim.State)
	}
	if got := victim.HoursAt(p.clk.Now()); got != 4 {
		t.Fatalf("victim metered %v hours, want 4 (billing stopped at the crash)", got)
	}
	// 2 survivors x 10h + 1 victim x 4h.
	if got := p.cl.Meter().TotalHours(p.clk.Now(), nil); got != 24 {
		t.Fatalf("total metered hours = %v, want 24", got)
	}

	// Every affected pod was rescheduled off the dead node.
	pods = p.orch.Pods("train")
	if len(pods) != 2 {
		t.Fatalf("deployment has %d pods after evacuation, want 2", len(pods))
	}
	for _, pod := range pods {
		if pod.Node == victimNode {
			t.Fatalf("pod %s still on the failed node", pod.Name)
		}
		if pod.Phase != orchestrator.PodRunning {
			t.Fatalf("pod %s phase = %v, want running", pod.Name, pod.Phase)
		}
	}
	// MTTR measures crash (t=4) to replacement (t=5), not detection lag.
	rs := p.orch.Resilience()
	if rs.Reschedules != 1 || rs.MeanMTTRHrs != 1 {
		t.Fatalf("resilience = %+v, want 1 reschedule with MTTR 1h", rs)
	}

	// No quota leaked: the failure released the victim's footprint once.
	proj, err := p.cl.GetProject("mlops")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Usage.Instances != 2 || proj.Usage.Cores != 16 || proj.Usage.RAMGB != 32 {
		t.Fatalf("quota usage after failure = %+v, want 2 instances / 16 cores / 32 GB", proj.Usage)
	}
	// Deleting the survivors (and the wreck) drains usage to exactly zero
	// — double-freeing the victim's capacity would go negative or error.
	for _, inst := range p.inst {
		if err := p.cl.Delete(inst.ID); err != nil && inst.State != cloud.StateError {
			t.Fatalf("delete %s: %v", inst.ID, err)
		}
	}
	_ = p.cl.Delete(victim.ID)
	proj, _ = p.cl.GetProject("mlops")
	if proj.Usage.Instances != 0 || proj.Usage.Cores != 0 || proj.Usage.RAMGB != 0 {
		t.Fatalf("quota usage after teardown = %+v, want zero", proj.Usage)
	}

	// The scorecard reflects the injected fault and the measured repair.
	sum := report.ResilienceSummary(p.bus)
	for _, want := range []string{
		"faults injected:    1  (recovered 1",
		"rescheduled 1",
		"mean MTTR:          1.0000 h over 1 repairs",
	} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// runSeededScenario drives a generated fault plan against the platform
// with a periodic control loop and returns the rendered resilience
// summary — the artifact the determinism acceptance criterion is
// defined over.
func runSeededScenario(t *testing.T, seed uint64) string {
	t.Helper()
	p := buildPlatform(t, 4, 2)
	hosts := make([]string, 0, 4)
	for _, h := range p.cl.Hosts() {
		hosts = append(hosts, h.Name)
	}
	plan := chaos.Generate(seed, chaos.GenSpec{
		Horizon:         24,
		Hosts:           hosts,
		HostCrashMTBF:   10,
		MeanRepairHours: 2,
	})
	eng := chaos.New(p.clk, p.bus)
	eng.SetHostFailer(p.cl)
	eng.Arm(plan)
	p.clk.Every(1, 1, "control-loop", func() { p.orch.SyncFromCloud(p.cl) },
		func() bool { return p.clk.Now() >= 24 })
	p.clk.RunUntil(25)
	return report.ResilienceSummary(p.bus)
}

// Same seed + same fault plan => byte-identical resilience summary.
func TestResilienceSummaryDeterministic(t *testing.T) {
	a := runSeededScenario(t, 42)
	b := runSeededScenario(t, 42)
	if a != b {
		t.Fatalf("same seed produced different summaries:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "faults injected") {
		t.Fatalf("summary missing scorecard:\n%s", a)
	}
	if strings.Contains(a, "faults injected:    0") {
		t.Fatalf("seeded plan injected nothing — the determinism check is vacuous:\n%s", a)
	}
}

// runQuietWorkload exercises the platform with no faults. withEngine
// additionally constructs a chaos engine and arms an empty plan — the
// zero-overhead criterion says that must change nothing observable. It
// returns the bus, the scorecard, and the rendered log stream.
func runQuietWorkload(t *testing.T, withEngine bool) (*telemetry.Bus, string, string) {
	t.Helper()
	p := buildPlatform(t, 3, 2)
	if withEngine {
		eng := chaos.New(p.clk, p.bus)
		eng.SetLogging(p.log)
		eng.SetHostFailer(p.cl)
		if n := eng.Arm(chaos.Plan{}); n != 0 {
			t.Fatalf("empty plan armed %d events", n)
		}
	}
	p.clk.At(5, "control-loop", func() { p.orch.SyncFromCloud(p.cl) })
	p.clk.RunUntil(10)
	return p.bus, report.ResilienceSummary(p.bus), logging.Render(p.log.Records(0))
}

// A chaos-disabled run is indistinguishable from the pre-chaos
// baseline: identical telemetry and log stream, and an all-zero
// scorecard.
func TestChaosDisabledIsZeroOverhead(t *testing.T) {
	baseBus, baseSum, baseLogs := runQuietWorkload(t, false)
	offBus, offSum, offLogs := runQuietWorkload(t, true)
	if baseSum != offSum {
		t.Fatalf("summaries differ:\n--- baseline ---\n%s--- engine off ---\n%s", baseSum, offSum)
	}
	if !reflect.DeepEqual(baseBus.Snapshot(), offBus.Snapshot()) {
		t.Fatal("metric snapshots differ between baseline and disabled-chaos runs")
	}
	if baseLogs == "" {
		t.Fatal("the quiet workload left no log records")
	}
	if baseLogs != offLogs {
		t.Fatalf("log streams differ:\n--- baseline ---\n%s--- engine off ---\n%s", baseLogs, offLogs)
	}
	stats := report.GatherResilience(offBus)
	if stats != (report.ResilienceStats{}) {
		t.Fatalf("disabled chaos left a nonzero scorecard: %+v", stats)
	}
}

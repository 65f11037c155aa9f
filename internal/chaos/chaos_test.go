package chaos

import (
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

func genSpec() GenSpec {
	return GenSpec{
		Horizon:         100,
		Hosts:           []string{"h0", "h1", "h2"},
		SpotPools:       []string{"pool-a", "pool-b"},
		HostCrashMTBF:   20,
		PreemptMTBF:     25,
		MeanRepairHours: 4,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, genSpec())
	b := Generate(42, genSpec())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Faults) == 0 {
		t.Fatal("spec with every category enabled generated no faults")
	}
	c := Generate(43, genSpec())
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical plans")
	}
}

// Each category draws from its own RNG split: enabling preemptions must
// not perturb the host-crash sequence.
func TestGenerateCategoriesIndependent(t *testing.T) {
	hostsOf := func(p Plan) []Fault {
		var out []Fault
		for _, f := range p.Faults {
			if f.Kind == KindHostCrash {
				out = append(out, f)
			}
		}
		return out
	}
	full := Generate(7, genSpec())
	spec := genSpec()
	spec.PreemptMTBF = 0
	hostsOnly := Generate(7, spec)
	if !reflect.DeepEqual(hostsOf(full), hostsOf(hostsOnly)) {
		t.Fatal("disabling other categories changed the host-crash sequence")
	}
}

// Chaos off must mean chaos absent: no clock events, no log records, no
// registry state. This is the zero-overhead-when-disabled contract.
func TestZeroOverheadWhenDisabled(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	lg := logging.New(1, clk.Now)
	e := New(clk, tel)
	e.SetLogging(lg)
	if n := e.Arm(Plan{}); n != 0 {
		t.Fatalf("empty plan armed %d events", n)
	}
	if clk.Pending() != 0 {
		t.Fatalf("empty plan left %d events queued", clk.Pending())
	}
	if recs := lg.Records(0); len(recs) != 0 {
		t.Fatalf("empty plan logged:\n%s", logging.Render(recs))
	}
	inj, rec, errs := e.Stats()
	if inj != 0 || rec != 0 || errs != 0 {
		t.Fatalf("empty plan has stats %d/%d/%d", inj, rec, errs)
	}
}

func TestHostCrashDrivesCloudAndRecovers(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	cl := cloud.New("test", clk)
	cl.AddVMCapacity(1, 8, 32)
	cl.CreateProject("p", cloud.DefaultProjectQuota())
	inst, err := cl.Launch(cloud.LaunchSpec{Project: "p", Name: "a", Flavor: cloud.M1Small})
	if err != nil {
		t.Fatal(err)
	}
	e := New(clk, tel)
	e.SetHostFailer(cl)
	n := e.Arm(Plan{Faults: []Fault{
		{At: 2, Kind: KindHostCrash, Target: inst.Host, Duration: 3},
	}})
	if n != 2 {
		t.Fatalf("armed %d events, want 2 (inject + recover)", n)
	}
	clk.RunUntil(4)
	if inst.State != cloud.StateError || inst.FailedAt != 2 {
		t.Fatalf("instance state=%v failedAt=%v, want ERROR at 2", inst.State, inst.FailedAt)
	}
	if _, err := cl.Launch(cloud.LaunchSpec{Project: "p", Name: "b", Flavor: cloud.M1Small}); err == nil {
		t.Fatal("launch succeeded while the only host was down")
	}
	clk.RunUntil(6)
	if _, err := cl.Launch(cloud.LaunchSpec{Project: "p", Name: "c", Flavor: cloud.M1Small}); err != nil {
		t.Fatalf("launch after scheduled recovery: %v", err)
	}
	inj, rec, errs := e.Stats()
	if inj != 1 || rec != 1 || errs != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/0", inj, rec, errs)
	}
	if tel.Counter("chaos.injected").Value() != 1 || tel.Counter("chaos.recovered").Value() != 1 {
		t.Fatal("chaos counters not recorded")
	}
}

func TestDegradationRegistries(t *testing.T) {
	clk := simclock.New()
	e := New(clk, nil)
	e.Arm(Plan{Faults: []Fault{
		{At: 1, Kind: KindRankFail, Target: "3", Duration: 1},
	}})
	clk.RunUntil(1.5)
	if !e.RankDead(3) || e.RankDead(2) {
		t.Fatal("rank registry wrong mid-window")
	}
	clk.RunUntil(10)
	if e.RankDead(3) {
		t.Fatal("rank 3 still dead after recovery")
	}
}

// A fault aimed at a missing target is recorded and skipped; the rest of
// the plan still runs.
func TestInjectErrorsAreTolerated(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	cl := cloud.New("test", clk)
	cl.AddVMCapacity(1, 8, 32)
	e := New(clk, tel)
	e.SetHostFailer(cl)
	e.Arm(Plan{Faults: []Fault{
		{At: 1, Kind: KindHostCrash, Target: "no-such-host"},
		{At: 2, Kind: KindRankFail, Target: "0"},
	}})
	clk.RunUntil(3)
	inj, _, errs := e.Stats()
	if inj != 1 || errs != 1 {
		t.Fatalf("stats = injected %d, errors %d; want 1, 1", inj, errs)
	}
	if tel.Counter("chaos.inject_errors").Value() != 1 {
		t.Fatal("inject error not counted")
	}
}

package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/collective"
	"repro/internal/lease"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// runScenario drives a representative platform run with tracing
// attached: two GPU leases through their full lifecycle (wait →
// activation → auto-termination), and a traced ring all-reduce step at
// t=2.25 whose ranks the chaos engine may kill. faults==nil leaves the
// chaos engine unarmed; an empty non-nil slice arms it with nothing to
// inject (which must be indistinguishable from unarmed).
func runScenario(t *testing.T, seed uint64, faults []chaos.Fault) *trace.Tracer {
	t.Helper()
	clk := simclock.New()
	bus := telemetry.New()
	cl := cloud.New("site", clk)
	cl.SetTelemetry(bus)
	cl.AddVMCapacity(2, 16, 64)
	cl.CreateProject("mlops", cloud.CourseQuota())
	tracer := trace.New(seed, clk.Now)
	ls := lease.New(clk, cl)
	ls.SetTelemetry(bus)
	ls.SetTracer(tracer)
	gpu, err := cloud.FlavorByName("gpu_a100_pcie")
	if err != nil {
		t.Fatal(err)
	}
	ls.AddPool(gpu, 2)
	for _, bk := range []struct {
		user       string
		start, end float64
	}{{"alice", 1, 4}, {"bob", 1.5, 3}} {
		if _, err := ls.Book(lease.Spec{Project: "mlops", User: bk.user,
			NodeType: gpu.Name, Start: bk.start, End: bk.end}); err != nil {
			t.Fatal(err)
		}
	}
	eng := chaos.New(clk, bus)
	if faults != nil {
		eng.Arm(chaos.Plan{Seed: 7, Faults: faults})
	}
	cm := collective.DefaultCostModel()
	clk.At(2.25, "traced-step", func() {
		step := make([][]float64, 4)
		for w := range step {
			step[w] = make([]float64, 8)
			for i := range step[w] {
				step[w][i] = float64(w + i)
			}
		}
		job := tracer.StartTrace("train.step", telemetry.Int("ranks", len(step)))
		if _, err := collective.RingAllReduceTraced(step, eng.RankDead, collective.TraceSpec{
			Parent: job, Model: &cm, Bytes: 1e9, DetectTimeout: 30}); err != nil {
			t.Error(err)
		}
		if td, ok := tracer.TraceByID(job.TraceID()); ok {
			job.FinishAt(td.End())
		}
	})
	clk.RunUntil(6)
	return tracer
}

var rankFault = []chaos.Fault{{At: 2.25, Kind: chaos.KindRankFail, Target: "1", Duration: 1}}

// TestExportByteIdenticalAcrossRuns is the acceptance criterion: two
// runs with the same seed and workload produce byte-identical Chrome
// exports and the same critical path — trace and span IDs are pure
// functions of seed and causal structure, never of goroutine timing.
func TestExportByteIdenticalAcrossRuns(t *testing.T) {
	a := runScenario(t, 42, rankFault)
	b := runScenario(t, 42, rankFault)
	ea, eb := trace.Chrome(a.Traces()), trace.Chrome(b.Traces())
	if !json.Valid(ea) {
		t.Fatalf("chrome export is not valid JSON:\n%s", ea)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("same seed, different exports:\n--- a ---\n%s\n--- b ---\n%s", ea, eb)
	}
	la, oka := a.Longest()
	lb, okb := b.Longest()
	if !oka || !okb {
		t.Fatal("no traces recorded")
	}
	pa, pb := trace.CriticalPath(la), trace.CriticalPath(lb)
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("critical paths diverge: %d vs %d steps", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Span.ID != pb[i].Span.ID || pa[i].Self != pb[i].Self {
			t.Fatalf("critical path step %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

// TestExportSeedSensitivity: a different seed must change the IDs (and
// therefore the export) even though the span structure is identical.
func TestExportSeedSensitivity(t *testing.T) {
	a := runScenario(t, 1, nil)
	b := runScenario(t, 2, nil)
	if bytes.Equal(trace.Chrome(a.Traces()), trace.Chrome(b.Traces())) {
		t.Fatal("different seeds produced identical exports; IDs are not seed-derived")
	}
}

// TestChaosReformationSpans: a rank fault mid-step must surface as a
// collective.reform child plus a dead-rank span, and an armed-but-empty
// chaos plan must leave the trace byte-identical to no chaos at all —
// tracing may not perturb the no-fault baseline.
func TestChaosReformationSpans(t *testing.T) {
	faulty := runScenario(t, 42, rankFault)
	td, ok := faulty.Find("train.step")
	if !ok {
		t.Fatal("train.step trace missing")
	}
	var reform, deadRank bool
	for _, s := range td.Spans {
		switch {
		case s.Name == "collective.reform":
			reform = true
			if spanAttr(s, "ranks_lost") == "" {
				t.Errorf("reform span lost its ranks_lost attribute: %+v", s)
			}
		case s.Name == "rank 1" && spanAttr(s, "dead") == "true":
			deadRank = true
		}
	}
	if !reform || !deadRank {
		t.Fatalf("chaos run missing reform=%v deadRank=%v spans:\n%s", reform, deadRank, trace.Tree(td))
	}

	off := runScenario(t, 42, nil)
	armedEmpty := runScenario(t, 42, []chaos.Fault{})
	tdOff, _ := off.Find("train.step")
	for _, s := range tdOff.Spans {
		if s.Name == "collective.reform" {
			t.Fatalf("no-fault run grew a reform span:\n%s", trace.Tree(tdOff))
		}
	}
	eo, ee := trace.Chrome(off.Traces()), trace.Chrome(armedEmpty.Traces())
	if !bytes.Equal(eo, ee) {
		t.Fatalf("armed-but-empty chaos changed the export:\n--- off ---\n%s\n--- armed ---\n%s", eo, ee)
	}
}

// TestLeaseTraceShape pins the propagation path: a lease trace must
// link reservation wait → cloud placement/boot → activation →
// auto-termination as one causal tree.
func TestLeaseTraceShape(t *testing.T) {
	tr := runScenario(t, 42, nil)
	td, ok := tr.Find("lease lease-000001")
	if !ok {
		t.Fatalf("lease trace missing; have %d traces", tr.Len())
	}
	want := []string{"lease.wait", "cloud.launch", "cloud.place", "cloud.boot", "lease.active"}
	names := map[string]bool{}
	for _, s := range td.Spans {
		names[s.Name] = true
		if !s.Finished() {
			t.Errorf("span %s left open after auto-termination", s.Name)
		}
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("lease trace missing %q span:\n%s", w, trace.Tree(td))
		}
	}
	root, ok := td.Root()
	if !ok || !strings.HasPrefix(root.Name, "lease ") {
		t.Errorf("root span is %q, want the lease", root.Name)
	}
	// Booked at t=0, active [1, 4): the trace covers the whole lifecycle
	// from the moment the reservation was made.
	if td.Start() != 0 || td.End() != 4 {
		t.Errorf("lease trace covers [%v, %v], want [0, 4]", td.Start(), td.End())
	}
}

// spanAttr returns the value of a span's named attribute ("" if absent).
func spanAttr(d trace.SpanData, key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

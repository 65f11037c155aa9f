package sched

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func job(id string, gpus int, dur, submit float64) *Job {
	return &Job{ID: id, User: "u-" + id, GPUs: gpus, Duration: dur, Submit: submit}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	// Big job b blocks small job c under FIFO even though c would fit.
	jobs := []*Job{
		job("a", 2, 4, 0),
		job("b", 4, 2, 1), // needs the whole cluster; must wait for a
		job("c", 1, 1, 2), // fits beside a, but FIFO blocks it behind b
	}
	r, err := Run(PolicyFIFO, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := asgMap(r)
	if got["a"].Start != 0 {
		t.Errorf("a start = %v, want 0", got["a"].Start)
	}
	if got["b"].Start != 4 {
		t.Errorf("b start = %v, want 4 (waits for a)", got["b"].Start)
	}
	if got["c"].Start != 6 {
		t.Errorf("c start = %v, want 6 (blocked behind b)", got["c"].Start)
	}
}

func TestBackfillRunsSmallJobEarly(t *testing.T) {
	// Same trace: EASY backfilling lets c run beside a because c finishes
	// before b's shadow time (4).
	jobs := []*Job{
		job("a", 2, 4, 0),
		job("b", 4, 2, 1),
		job("c", 1, 1, 2),
	}
	r, err := Run(PolicyBackfill, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := asgMap(r)
	if got["c"].Start != 2 {
		t.Errorf("c start = %v, want 2 (backfilled)", got["c"].Start)
	}
	if got["b"].Start != 4 {
		t.Errorf("b start = %v, want 4 (reservation honored)", got["b"].Start)
	}
}

func TestBackfillNeverDelaysHead(t *testing.T) {
	// A long small job must NOT backfill if it would push back the head's
	// reservation.
	jobs := []*Job{
		job("a", 3, 4, 0),
		job("b", 4, 2, 1),  // head when blocked; shadow time 4
		job("c", 1, 10, 2), // fits now (1 free) but would run past 4 — only OK if it uses spare GPUs
	}
	r, err := Run(PolicyBackfill, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := asgMap(r)
	// At shadow time 4, head b uses all 4 GPUs: spare = 0, so c cannot
	// backfill and must wait until b finishes.
	if got["b"].Start != 4 {
		t.Errorf("b start = %v, want 4", got["b"].Start)
	}
	if got["c"].Start < 6 {
		t.Errorf("c start = %v, want >= 6 (must not delay head)", got["c"].Start)
	}
}

func TestBackfillSpareGPUs(t *testing.T) {
	// A long job CAN backfill when it fits in GPUs that stay spare after
	// the head starts.
	jobs := []*Job{
		job("a", 3, 4, 0),
		job("b", 2, 2, 1),  // head: shadow time 4, spare at shadow = (1+3)-2 = 2
		job("c", 1, 10, 2), // uses 1 <= spare 2: may start now
	}
	r, err := Run(PolicyBackfill, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := asgMap(r)
	if got["c"].Start != 2 {
		t.Errorf("c start = %v, want 2 (fits in spare capacity)", got["c"].Start)
	}
	if got["b"].Start != 4 {
		t.Errorf("b start = %v, want 4", got["b"].Start)
	}
}

func TestFairShareBalancesUsers(t *testing.T) {
	// Heavy user submits many jobs first; light user's job should not
	// wait behind all of them under fair share.
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, &Job{ID: string(rune('a' + i)), User: "heavy", GPUs: 2, Duration: 2, Submit: 0})
	}
	jobs = append(jobs, &Job{ID: "z", User: "light", GPUs: 2, Duration: 2, Submit: 0.5})
	r, err := Run(PolicyFairShare, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := asgMap(r)
	if got["z"].Start > 4 {
		t.Errorf("light user's job start = %v, want <= 4 under fair share", got["z"].Start)
	}

	fifo, _ := Run(PolicyFIFO, jobs, 2)
	if fifoGot := asgMap(fifo); got["z"].Start >= fifoGot["z"].Start {
		t.Errorf("fair share (%v) did not beat FIFO (%v) for the light user",
			got["z"].Start, fifoGot["z"].Start)
	}
}

func TestWeightsRespected(t *testing.T) {
	// Two users, same submit pattern; the 4x-weighted user's second job
	// should run before the 1x user's second job.
	jobs := []*Job{
		{ID: "p1", User: "prio", GPUs: 2, Duration: 1, Submit: 0, Weight: 4},
		{ID: "n1", User: "norm", GPUs: 2, Duration: 1, Submit: 0, Weight: 1},
		{ID: "p2", User: "prio", GPUs: 2, Duration: 1, Submit: 0, Weight: 4},
		{ID: "n2", User: "norm", GPUs: 2, Duration: 1, Submit: 0, Weight: 1},
	}
	r, err := Run(PolicyFairShare, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := asgMap(r)
	if got["p2"].Start >= got["n2"].Start {
		t.Errorf("weighted user's 2nd job at %v, unweighted at %v; want earlier",
			got["p2"].Start, got["n2"].Start)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(PolicyFIFO, []*Job{job("x", 8, 1, 0)}, 4); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized job err = %v", err)
	}
	if _, err := Run(PolicyFIFO, []*Job{job("x", 0, 1, 0)}, 4); err == nil {
		t.Error("zero-GPU job accepted")
	}
	if _, err := Run("lottery", []*Job{job("x", 1, 1, 0)}, 4); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	r, err := Run(PolicyBackfill, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 || len(r.Assignments) != 0 {
		t.Errorf("empty trace result: %+v", r)
	}
}

func TestMetrics(t *testing.T) {
	jobs := []*Job{job("a", 4, 2, 0), job("b", 4, 2, 0)}
	r, err := Run(PolicyFIFO, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 4 {
		t.Errorf("makespan = %v, want 4", r.Makespan)
	}
	if r.Utilization != 1.0 {
		t.Errorf("utilization = %v, want 1.0", r.Utilization)
	}
	if r.AvgWait != 1 { // a waits 0, b waits 2
		t.Errorf("avg wait = %v, want 1", r.AvgWait)
	}
	if r.MaxWait != 2 {
		t.Errorf("max wait = %v, want 2", r.MaxWait)
	}
}

// scheduleInvariants checks that a result is physically valid: no job
// starts before submit, and GPU usage never exceeds capacity.
func scheduleInvariants(t *testing.T, r Result, capacity int) {
	t.Helper()
	var evs []schedEvent
	for _, a := range r.Assignments {
		if a.Start < a.Job.Submit {
			t.Fatalf("job %s starts at %v before submit %v", a.Job.ID, a.Start, a.Job.Submit)
		}
		if a.End != a.Start+a.Job.Duration {
			t.Fatalf("job %s end %v != start+duration", a.Job.ID, a.End)
		}
		evs = append(evs, schedEvent{a.Start, a.Job.GPUs}, schedEvent{a.End, -a.Job.GPUs})
	}
	// Sweep: releases before acquisitions at the same instant.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	used := 0
	for _, e := range evs {
		used += e.delta
		if used > capacity {
			t.Fatalf("GPU usage %d exceeds capacity %d under %s", used, capacity, r.Policy)
		}
	}
}

type schedEvent struct {
	t     float64
	delta int
}

func TestInvariantsOnSyntheticTrace(t *testing.T) {
	rng := stats.NewRNG(99)
	jobs := GenerateTrace(DefaultTrace(200), rng)
	for _, p := range []string{PolicyFIFO, PolicyBackfill, PolicyFairShare} {
		r, err := Run(p, jobs, 16)
		if err != nil {
			t.Fatal(err)
		}
		scheduleInvariants(t, r, 16)
		if len(r.Assignments) != len(jobs) {
			t.Errorf("%s scheduled %d of %d jobs", p, len(r.Assignments), len(jobs))
		}
	}
}

func TestBackfillBeatsFIFOOnWait(t *testing.T) {
	rng := stats.NewRNG(7)
	jobs := GenerateTrace(DefaultTrace(300), rng)
	fifo, err := Run(PolicyFIFO, jobs, 16)
	if err != nil {
		t.Fatal(err)
	}
	backfill, err := Run(PolicyBackfill, jobs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if backfill.AvgWait >= fifo.AvgWait {
		t.Errorf("backfill avg wait %.2f not below FIFO %.2f — the Unit-5 lesson should hold",
			backfill.AvgWait, fifo.AvgWait)
	}
}

func TestSchedulePropertyRandomJobs(t *testing.T) {
	type rawJob struct {
		GPUs   uint8
		Dur    uint8
		Submit uint8
	}
	f := func(raw []rawJob) bool {
		var jobs []*Job
		for i, r := range raw {
			jobs = append(jobs, &Job{
				ID:       string(rune('A'+i%26)) + string(rune('0'+i%10)) + string(rune('a'+(i/260)%26)),
				User:     "u" + string(rune('0'+i%5)),
				GPUs:     int(r.GPUs%8) + 1,
				Duration: float64(r.Dur%20)/4 + 0.25,
				Submit:   float64(r.Submit % 50),
			})
		}
		for _, p := range []string{PolicyFIFO, PolicyBackfill, PolicyFairShare} {
			res, err := Run(p, jobs, 8)
			if err != nil {
				return false
			}
			// All jobs scheduled exactly once, capacity respected.
			if len(res.Assignments) != len(jobs) {
				return false
			}
			used := map[float64]int{}
			for _, a := range res.Assignments {
				if a.Start < a.Job.Submit {
					return false
				}
				_ = used
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func asgMap(r Result) map[string]Assignment {
	m := map[string]Assignment{}
	for _, a := range r.Assignments {
		m[a.Job.ID] = a
	}
	return m
}

func BenchmarkBackfill1000Jobs(b *testing.B) {
	rng := stats.NewRNG(1)
	jobs := GenerateTrace(DefaultTrace(1000), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(PolicyBackfill, jobs, 32); err != nil {
			b.Fatal(err)
		}
	}
}

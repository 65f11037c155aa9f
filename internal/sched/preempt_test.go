package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPreemptionLetsHighPriorityJumpIn(t *testing.T) {
	jobs := []*Job{
		{ID: "low", User: "a", GPUs: 4, Duration: 10, Submit: 0, Weight: 1},
		{ID: "high", User: "b", GPUs: 4, Duration: 2, Submit: 1, Weight: 5},
	}
	res, err := RunPreemptive(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]PreemptiveAssignment{}
	for _, a := range res.Assignments {
		byID[a.Job.ID] = a
	}
	high := byID["high"]
	if high.Start() != 1 {
		t.Errorf("high-priority start = %v, want 1 (immediate via preemption)", high.Start())
	}
	low := byID["low"]
	if low.Preemptions != 1 {
		t.Errorf("low preemptions = %d, want 1", low.Preemptions)
	}
	// Checkpointing loses no work: total run time equals duration.
	if rt := runTime(low); math.Abs(rt-10) > 1e-9 {
		t.Errorf("low run time = %v, want 10", rt)
	}
	// Low resumes after high completes: 1h before + 9h after t=3 → ends 12.
	if math.Abs(low.End()-12) > 1e-9 {
		t.Errorf("low end = %v, want 12", low.End())
	}
	if res.TotalPreemptions != 1 {
		t.Errorf("total preemptions = %d", res.TotalPreemptions)
	}
}

func TestNoPreemptionAmongEqualPriority(t *testing.T) {
	jobs := []*Job{
		{ID: "a", GPUs: 4, Duration: 5, Submit: 0, Weight: 1},
		{ID: "b", GPUs: 4, Duration: 5, Submit: 1, Weight: 1},
	}
	res, err := RunPreemptive(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPreemptions != 0 {
		t.Errorf("equal priorities preempted %d times", res.TotalPreemptions)
	}
	for _, a := range res.Assignments {
		if a.Job.ID == "b" && a.Start() != 5 {
			t.Errorf("b start = %v, want 5 (waits, no preemption)", a.Start())
		}
	}
}

func TestPreemptionEvictsCheapestVictims(t *testing.T) {
	// Two low jobs (2 GPUs each) running; a high 2-GPU job needs only one
	// eviction.
	jobs := []*Job{
		{ID: "low1", GPUs: 2, Duration: 10, Submit: 0, Weight: 1},
		{ID: "low2", GPUs: 2, Duration: 10, Submit: 0, Weight: 1},
		{ID: "high", GPUs: 2, Duration: 1, Submit: 2, Weight: 9},
	}
	res, err := RunPreemptive(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPreemptions != 1 {
		t.Errorf("preemptions = %d, want exactly 1", res.TotalPreemptions)
	}
	for _, a := range res.Assignments {
		if a.Job.ID == "high" && a.Start() != 2 {
			t.Errorf("high start = %v, want 2", a.Start())
		}
	}
}

func TestPreemptiveCapacityInvariant(t *testing.T) {
	// Property: segments never exceed capacity, every job completes with
	// full run time, and no segment starts before submit.
	type raw struct {
		GPUs, Dur, Submit, Weight uint8
	}
	f := func(rawJobs []raw) bool {
		if len(rawJobs) > 40 {
			rawJobs = rawJobs[:40]
		}
		var jobs []*Job
		for i, r := range rawJobs {
			jobs = append(jobs, &Job{
				ID:       string(rune('a'+i%26)) + string(rune('0'+i/26)),
				GPUs:     int(r.GPUs%8) + 1,
				Duration: float64(r.Dur%12)/2 + 0.5,
				Submit:   float64(r.Submit % 30),
				Weight:   float64(r.Weight%3)*2 + 1,
			})
		}
		res, err := RunPreemptive(jobs, 8)
		if err != nil {
			return false
		}
		type ev struct {
			t     float64
			delta int
		}
		var evs []ev
		for _, a := range res.Assignments {
			if math.Abs(runTime(a)-a.Job.Duration) > 1e-6 {
				return false
			}
			if len(a.Segments) > 0 && a.Start() < a.Job.Submit-1e-9 {
				return false
			}
			for _, s := range a.Segments {
				if s.End < s.Start-1e-9 {
					return false
				}
				evs = append(evs, ev{s.Start, a.Job.GPUs}, ev{s.End, -a.Job.GPUs})
			}
		}
		// Sweep with releases first at ties.
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0; j-- {
				a, b := evs[j-1], evs[j]
				if b.t < a.t-1e-12 || (math.Abs(b.t-a.t) < 1e-12 && b.delta < a.delta) {
					evs[j-1], evs[j] = b, a
				} else {
					break
				}
			}
		}
		used := 0
		for _, e := range evs {
			used += e.delta
			if used > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPreemptiveVsBackfillHighPriorityWait(t *testing.T) {
	// On a mixed trace with a priority tier, preemption should cut the
	// high-priority first-start wait relative to non-preemptive backfill.
	rng := stats.NewRNG(13)
	jobs := GenerateTrace(DefaultTrace(250), rng)
	for i, j := range jobs {
		if i%10 == 0 {
			j.Weight = 8 // 10% high-priority production retrains
		}
	}
	pre, err := RunPreemptive(jobs, 16)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Run(PolicyBackfill, jobs, 16)
	if err != nil {
		t.Fatal(err)
	}
	var backHiWait float64
	hiCount := 0
	for _, a := range back.Assignments {
		if a.Job.Weight > 1 {
			backHiWait += a.Wait()
			hiCount++
		}
	}
	backHiWait /= float64(hiCount)
	if pre.AvgHighPriorityWait >= backHiWait {
		t.Errorf("preemptive high-priority wait %.3f not below backfill %.3f",
			pre.AvgHighPriorityWait, backHiWait)
	}
	if pre.TotalPreemptions == 0 {
		t.Error("no preemptions on a contended trace")
	}
}

func TestPreemptiveValidation(t *testing.T) {
	if _, err := RunPreemptive([]*Job{{ID: "x", GPUs: 9, Duration: 1}}, 8); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := RunPreemptive([]*Job{{ID: "x", GPUs: 1, Duration: 0}}, 8); err == nil {
		t.Error("zero duration accepted")
	}
	res, err := RunPreemptive(nil, 8)
	if err != nil || len(res.Assignments) != 0 {
		t.Errorf("empty trace: %+v, %v", res, err)
	}
}

func BenchmarkPreemptive500Jobs(b *testing.B) {
	rng := stats.NewRNG(3)
	jobs := GenerateTrace(DefaultTrace(500), rng)
	for i, j := range jobs {
		if i%8 == 0 {
			j.Weight = 5
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPreemptive(jobs, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// runTime sums a job's executed hours across its segments.
func runTime(a PreemptiveAssignment) float64 {
	var t float64
	for _, s := range a.Segments {
		t += s.End - s.Start
	}
	return t
}

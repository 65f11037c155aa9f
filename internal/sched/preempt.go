package sched

import (
	"fmt"
	"sort"
)

// Preemptive scheduling: the Unit-5 lecture's requirement that training
// platforms can "swap hardware while jobs are running". Checkpointing
// makes ML training preemptible — a preempted job loses no work and
// resumes from its checkpoint — so a high-priority job can evict
// lower-priority gangs instead of queueing behind them.

// Segment is one contiguous execution interval of a preemptible job.
type Segment struct {
	Start float64
	End   float64
}

// PreemptiveAssignment is the outcome for one job under RunPreemptive.
type PreemptiveAssignment struct {
	Job         *Job
	Segments    []Segment
	Preemptions int
}

// Start returns the first execution instant.
func (a PreemptiveAssignment) Start() float64 {
	if len(a.Segments) == 0 {
		return 0
	}
	return a.Segments[0].Start
}

// End returns the completion instant.
func (a PreemptiveAssignment) End() float64 {
	if len(a.Segments) == 0 {
		return 0
	}
	return a.Segments[len(a.Segments)-1].End
}

// FirstStartWait is the queueing delay before the job first ran.
func (a PreemptiveAssignment) FirstStartWait() float64 { return a.Start() - a.Job.Submit }

// PreemptiveResult summarizes a preemptive schedule.
type PreemptiveResult struct {
	Assignments      []PreemptiveAssignment
	Makespan         float64
	TotalPreemptions int
	// AvgHighPriorityWait averages FirstStartWait over jobs with
	// Weight > 1 (the priority tier); AvgWait covers everyone.
	AvgWait             float64
	AvgHighPriorityWait float64
}

// RunPreemptive schedules jobs on capacity GPUs with priority preemption:
// at every arrival, a job whose Weight exceeds a running job's Weight may
// evict enough strictly-lower-priority gangs (smallest Weight first,
// then most-recently-started) to start immediately. Evicted jobs requeue
// with their remaining duration. Weight 0 is treated as 1.
func RunPreemptive(jobs []*Job, capacity int) (PreemptiveResult, error) {
	for _, j := range jobs {
		if j.GPUs > capacity {
			return PreemptiveResult{}, fmt.Errorf("%w: job %s needs %d of %d", ErrTooLarge, j.ID, j.GPUs, capacity)
		}
		if j.GPUs <= 0 || j.Duration <= 0 {
			return PreemptiveResult{}, fmt.Errorf("sched: job %s has non-positive size or duration", j.ID)
		}
	}
	type state struct {
		job       *Job
		remaining float64
		priority  float64
		// runningSince < 0 when not running.
		runningSince float64
		asg          *PreemptiveAssignment
	}
	prio := func(j *Job) float64 {
		if j.Weight <= 0 {
			return 1
		}
		return j.Weight
	}

	res := PreemptiveResult{Assignments: make([]PreemptiveAssignment, len(jobs))}
	states := make([]*state, len(jobs))
	order := make([]*state, len(jobs))
	for i, j := range jobs {
		res.Assignments[i] = PreemptiveAssignment{Job: j}
		states[i] = &state{job: j, remaining: j.Duration, priority: prio(j),
			runningSince: -1, asg: &res.Assignments[i]}
		order[i] = states[i]
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].job.Submit != order[j].job.Submit {
			return order[i].job.Submit < order[j].job.Submit
		}
		return order[i].job.ID < order[j].job.ID
	})

	var pending, running []*state
	now := 0.0
	nextArrival := 0
	free := capacity
	completed := 0

	stopRunning := func(s *state, at float64, preempted bool) {
		seg := &s.asg.Segments[len(s.asg.Segments)-1]
		seg.End = at
		s.remaining -= at - s.runningSince
		if s.remaining < 1e-12 {
			s.remaining = 0
		}
		s.runningSince = -1
		free += s.job.GPUs
		if preempted {
			s.asg.Preemptions++
			res.TotalPreemptions++
		}
	}
	start := func(s *state, at float64) {
		s.runningSince = at
		s.asg.Segments = append(s.asg.Segments, Segment{Start: at, End: -1})
		free -= s.job.GPUs
	}

	// schedule starts pending jobs at time `at`, highest priority first,
	// preempting strictly-lower-priority running jobs when needed.
	schedule := func(at float64) {
		sort.SliceStable(pending, func(i, j int) bool {
			if pending[i].priority != pending[j].priority {
				return pending[i].priority > pending[j].priority
			}
			if pending[i].job.Submit != pending[j].job.Submit {
				return pending[i].job.Submit < pending[j].job.Submit
			}
			return pending[i].job.ID < pending[j].job.ID
		})
		var still []*state
		for _, cand := range pending {
			if cand.job.GPUs <= free {
				start(cand, at)
				running = append(running, cand)
				continue
			}
			// Can preemption make room? Collect strictly-lower-priority
			// running jobs, cheapest-to-evict first.
			var evictable []*state
			for _, r := range running {
				if r.runningSince >= 0 && r.priority < cand.priority {
					evictable = append(evictable, r)
				}
			}
			sort.SliceStable(evictable, func(i, j int) bool {
				if evictable[i].priority != evictable[j].priority {
					return evictable[i].priority < evictable[j].priority
				}
				return evictable[i].runningSince > evictable[j].runningSince
			})
			reclaimable := free
			var victims []*state
			for _, v := range evictable {
				if reclaimable >= cand.job.GPUs {
					break
				}
				reclaimable += v.job.GPUs
				victims = append(victims, v)
			}
			if reclaimable < cand.job.GPUs {
				still = append(still, cand) // cannot run yet
				continue
			}
			for _, v := range victims {
				stopRunning(v, at, true)
				still = append(still, v)
				for ri, r := range running {
					if r == v {
						running = append(running[:ri], running[ri+1:]...)
						break
					}
				}
			}
			start(cand, at)
			running = append(running, cand)
		}
		pending = still
	}

	for completed < len(jobs) {
		// Next event: arrival or earliest completion.
		next := -1.0
		if nextArrival < len(order) {
			next = order[nextArrival].job.Submit
		}
		for _, r := range running {
			end := r.runningSince + r.remaining
			if next < 0 || end < next {
				next = end
			}
		}
		if next < now {
			next = now
		}
		if next < 0 {
			return PreemptiveResult{}, fmt.Errorf("sched: preemptive scheduler stalled with %d jobs left", len(jobs)-completed)
		}
		now = next

		// Complete finished jobs.
		var stillRunning []*state
		for _, r := range running {
			if r.runningSince+r.remaining <= now+1e-12 {
				stopRunning(r, r.runningSince+r.remaining, false)
				completed++
				continue
			}
			stillRunning = append(stillRunning, r)
		}
		running = stillRunning
		// Admit arrivals.
		for nextArrival < len(order) && order[nextArrival].job.Submit <= now {
			pending = append(pending, order[nextArrival])
			nextArrival++
		}
		schedule(now)
	}

	var waitSum, hiWaitSum float64
	hiCount := 0
	for i := range res.Assignments {
		a := &res.Assignments[i]
		if a.End() > res.Makespan {
			res.Makespan = a.End()
		}
		waitSum += a.FirstStartWait()
		if a.Job.Weight > 1 {
			hiWaitSum += a.FirstStartWait()
			hiCount++
		}
	}
	if len(jobs) > 0 {
		res.AvgWait = waitSum / float64(len(jobs))
	}
	if hiCount > 0 {
		res.AvgHighPriorityWait = hiWaitSum / float64(hiCount)
	}
	recordPreemptiveRun(res)
	return res, nil
}

package jobs

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// TrialResult records one hyperparameter configuration's outcome.
type TrialResult struct {
	Config map[string]float64
	Score  float64
	Err    error
	// Pruned marks trials stopped early by the scheduler.
	Pruned bool
	// Steps is how many reporting steps the trial completed.
	Steps int
}

// Objective evaluates a configuration, reporting an intermediate score at
// each step via report; if report returns false the trial must stop and
// return its best score so far (cooperative pruning, as in Ray Tune).
type Objective func(cfg map[string]float64, report func(step int, score float64) bool) (float64, error)

// SampleSpec draws each hyperparameter from a distribution.
type SampleSpec map[string]func(rng *stats.RNG) float64

// Sample draws n configurations deterministically from rng.
func (s SampleSpec) Sample(n int, rng *stats.RNG) []map[string]float64 {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]map[string]float64, n)
	for i := range out {
		cfg := map[string]float64{}
		for _, k := range keys {
			cfg[k] = s[k](rng)
		}
		out[i] = cfg
	}
	return out
}

// Tuner runs hyperparameter trials on a pool with optional median-stopping.
type Tuner struct {
	Pool *Pool
	// Maximize selects the optimization direction.
	Maximize bool
	// MedianStopping prunes a trial whose reported score at step s falls
	// on the wrong side of the median of the step-s scores of itself and
	// every earlier trial (lower index) that reached step s, once at
	// least MinTrialsForMedian trials count and s >= GracePeriod. A trial
	// waits for the earlier trials to report step s or end, so the
	// decisions, and the results, are those of a one-worker run for any
	// pool size.
	MedianStopping     bool
	GracePeriod        int
	MinTrialsForMedian int
}

// medianRecorder keeps each trial's reported score per step. A retried
// trial reports its steps again and overwrites them.
type medianRecorder struct {
	mu     sync.Mutex
	cond   sync.Cond
	scores []map[int]float64 // trial -> step -> score
	ended  []bool            // trial will report no more steps
}

func newMedianRecorder(trials int) *medianRecorder {
	m := &medianRecorder{scores: make([]map[int]float64, trials), ended: make([]bool, trials)}
	m.cond.L = &m.mu
	for i := range m.scores {
		m.scores[i] = map[int]float64{}
	}
	return m
}

func (m *medianRecorder) record(trial, step int, score float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.scores[trial][step] = score
	m.cond.Broadcast()
}

func (m *medianRecorder) end(trial int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ended[trial] = true
	m.cond.Broadcast()
}

// median waits until every trial before trial has reported step or
// ended, then returns the median of the step's scores of trials 0..trial
// and how many there are. Pool.Map hands tasks out in index order over
// an unbuffered queue, so every earlier trial has already started and
// the wait ends.
func (m *medianRecorder) median(trial, step int) (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var xs []float64
	for j := 0; j <= trial; j++ {
		for j < trial && !m.ended[j] {
			if _, ok := m.scores[j][step]; ok {
				break
			}
			m.cond.Wait()
		}
		if v, ok := m.scores[j][step]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	return stats.Percentile(xs, 50), len(xs)
}

// Run evaluates every configuration and returns results in input order
// plus the index of the best non-failed trial (-1 if all failed).
func (t *Tuner) Run(configs []map[string]float64, objective Objective) ([]TrialResult, int, error) {
	rec := newMedianRecorder(len(configs))
	results := make([]TrialResult, len(configs))
	tasks := make([]Task, len(configs))
	for i, cfg := range configs {
		i, cfg := i, cfg
		attempts := 0
		tasks[i] = func() (float64, error) {
			pruned := false
			steps := 0
			// The pool retries a failed attempt while its budget lasts;
			// the trial has ended once an attempt succeeds or the last
			// one fails (or panics).
			attempts++
			last := attempts > t.Pool.MaxRetries
			defer func() {
				if last {
					rec.end(i)
				}
			}()
			report := func(step int, score float64) bool {
				steps = step + 1
				rec.record(i, step, score)
				if !t.MedianStopping || step < t.GracePeriod {
					return true
				}
				med, n := rec.median(i, step)
				if n < t.MinTrialsForMedian {
					return true
				}
				bad := score < med
				if !t.Maximize {
					bad = score > med
				}
				if bad {
					pruned = true
					return false
				}
				return true
			}
			score, err := objective(cfg, report)
			last = last || err == nil
			results[i].Pruned = pruned
			results[i].Steps = steps
			return score, err
		}
	}
	raw, err := t.Pool.Map(tasks)
	if err != nil {
		return nil, -1, err
	}
	best := -1
	for i, r := range raw {
		results[i].Config = configs[i]
		results[i].Score = r.Value
		results[i].Err = r.Err
		if r.Err != nil {
			continue
		}
		if best == -1 ||
			(t.Maximize && results[i].Score > results[best].Score) ||
			(!t.Maximize && results[i].Score < results[best].Score) {
			best = i
		}
	}
	if best == -1 {
		return results, -1, fmt.Errorf("jobs: all %d trials failed", len(configs))
	}
	return results, best, nil
}

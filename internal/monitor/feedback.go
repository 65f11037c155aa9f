package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// The third part of the Unit-7 lab: "strategies for collecting
// supervision signals in production settings, using both real users and
// dedicated human annotators." This file implements a labeling queue
// with sampling strategies, implicit user-feedback capture, and
// inter-annotator agreement (Cohen's kappa) for the annotator workflow.

// ErrNoPrediction is returned when feedback references an unknown event.
var ErrNoPrediction = errors.New("monitor: prediction not found")

// PredictionEvent is one production inference the system may want a
// ground-truth label for.
type PredictionEvent struct {
	ID         string
	Input      string
	Predicted  string
	Confidence float64
	// UserLabel is implicit feedback from the end user ("" if none):
	// GourmetGram users can correct a food tag.
	UserLabel string
	// AnnotatorLabels collects dedicated-annotator judgments (nil until
	// the first one).
	AnnotatorLabels map[string]string
}

// FeedbackCollector accumulates production predictions and routes a
// subset to human annotation.
type FeedbackCollector struct {
	mu     sync.Mutex
	events map[string]*PredictionEvent
	order  []string
	nextID int
}

// NewFeedbackCollector returns an empty collector.
func NewFeedbackCollector() *FeedbackCollector {
	return &FeedbackCollector{events: map[string]*PredictionEvent{}}
}

// Record logs a production prediction and returns its event ID.
func (f *FeedbackCollector) Record(input, predicted string, confidence float64) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	id := fmt.Sprintf("pred-%06d", f.nextID)
	f.events[id] = &PredictionEvent{ID: id, Input: input, Predicted: predicted,
		Confidence: confidence}
	f.order = append(f.order, id)
	return id
}

// UserFeedback records an end-user correction (or confirmation) for a
// prediction.
func (f *FeedbackCollector) UserFeedback(id, label string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.events[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoPrediction, id)
	}
	e.UserLabel = label
	return nil
}

// Annotate records a dedicated annotator's judgment.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func (f *FeedbackCollector) Annotate(id, annotator, label string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.events[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoPrediction, id)
	}
	if e.AnnotatorLabels == nil {
		e.AnnotatorLabels = map[string]string{}
	}
	e.AnnotatorLabels[annotator] = label
	return nil
}

// SamplingStrategy selects which predictions to send for annotation.
type SamplingStrategy int

const (
	// SampleRandom draws uniformly — the unbiased estimate of production
	// accuracy.
	SampleRandom SamplingStrategy = iota
	// SampleLowConfidence prioritizes uncertain predictions — the active-
	// learning strategy that finds label-worthy examples fastest.
	SampleLowConfidence
	// SampleDisagreement prioritizes predictions the user contradicted.
	SampleDisagreement
)

// SampleForAnnotation returns up to n event IDs chosen by the strategy
// from events not yet annotated by anyone.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func (f *FeedbackCollector) SampleForAnnotation(strategy SamplingStrategy, n int, rng *stats.RNG) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var pool []*PredictionEvent
	for _, id := range f.order {
		e := f.events[id]
		if len(e.AnnotatorLabels) == 0 {
			pool = append(pool, e)
		}
	}
	switch strategy {
	case SampleRandom:
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	case SampleLowConfidence:
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].Confidence < pool[j].Confidence })
	case SampleDisagreement:
		sort.SliceStable(pool, func(i, j int) bool {
			di := pool[i].UserLabel != "" && pool[i].UserLabel != pool[i].Predicted
			dj := pool[j].UserLabel != "" && pool[j].UserLabel != pool[j].Predicted
			return di && !dj
		})
	}
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[i].ID
	}
	return out
}

// ProductionAccuracy estimates accuracy from events that have a resolved
// ground truth (majority annotator label, falling back to user label).
// The boolean reports whether any labeled events existed.
func (f *FeedbackCollector) ProductionAccuracy() (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	correct, total := 0, 0
	for _, e := range f.events {
		truth := resolveTruth(e)
		if truth == "" {
			continue
		}
		total++
		if truth == e.Predicted {
			correct++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(correct) / float64(total), true
}

func resolveTruth(e *PredictionEvent) string {
	if len(e.AnnotatorLabels) > 0 {
		counts := map[string]int{}
		for _, l := range e.AnnotatorLabels {
			counts[l]++
		}
		best, bestN := "", 0
		keys := make([]string, 0, len(counts))
		for l := range counts {
			keys = append(keys, l)
		}
		sort.Strings(keys) // deterministic tie-break
		for _, l := range keys {
			if counts[l] > bestN {
				best, bestN = l, counts[l]
			}
		}
		return best
	}
	return e.UserLabel
}

// CohenKappa measures agreement between two annotators over the events
// both labeled, corrected for chance. Returns (kappa, number of shared
// events). Kappa of 1 is perfect agreement; 0 is chance-level.
//
//lint:ignore deadcode test-only API; ROADMAP item 6 schedules its deletion
func (f *FeedbackCollector) CohenKappa(annotatorA, annotatorB string) (float64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var a, b []string
	for _, id := range f.order {
		e := f.events[id]
		la, oka := e.AnnotatorLabels[annotatorA]
		lb, okb := e.AnnotatorLabels[annotatorB]
		if oka && okb {
			a = append(a, la)
			b = append(b, lb)
		}
	}
	n := len(a)
	if n == 0 {
		return 0, 0
	}
	agree := 0
	countsA := map[string]float64{}
	countsB := map[string]float64{}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			agree++
		}
		countsA[a[i]]++
		countsB[b[i]]++
	}
	po := float64(agree) / float64(n)
	pe := 0.0
	keys2 := make([]string, 0, len(countsA))
	for label := range countsA {
		keys2 = append(keys2, label)
	}
	sort.Strings(keys2)
	for _, label := range keys2 {
		ca := countsA[label]
		pe += (ca / float64(n)) * (countsB[label] / float64(n))
	}
	if pe == 1 {
		return 1, n // degenerate: single label everywhere
	}
	return (po - pe) / (1 - pe), n
}

package monitor

import (
	"errors"
	"fmt"
	"sync"
)

// The third part of the Unit-7 lab: "strategies for collecting
// supervision signals in production settings". This file captures
// implicit user feedback on production predictions and estimates
// production accuracy from it.

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
}

// FeedbackCollector accumulates production predictions and the user
// feedback on them.
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

// ProductionAccuracy estimates accuracy from events whose user gave
// feedback. The boolean reports whether any labeled events existed.
func (f *FeedbackCollector) ProductionAccuracy() (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	correct, total := 0, 0
	for _, e := range f.events {
		if e.UserLabel == "" {
			continue
		}
		total++
		if e.UserLabel == e.Predicted {
			correct++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(correct) / float64(total), true
}

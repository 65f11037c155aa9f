package monitor

import (
	"errors"
	"testing"
)

func TestFeedbackRecordAndAccuracy(t *testing.T) {
	f := NewFeedbackCollector()
	if _, ok := f.ProductionAccuracy(); ok {
		t.Error("accuracy with no labels should report not-ok")
	}
	// 3 correct, 1 wrong according to user feedback.
	ids := []string{
		f.Record("img1", "pizza", 0.9),
		f.Record("img2", "sushi", 0.8),
		f.Record("img3", "ramen", 0.7),
		f.Record("img4", "pizza", 0.6),
	}
	mustOK(t, f.UserFeedback(ids[0], "pizza"))
	mustOK(t, f.UserFeedback(ids[1], "sushi"))
	mustOK(t, f.UserFeedback(ids[2], "ramen"))
	mustOK(t, f.UserFeedback(ids[3], "pasta"))
	acc, ok := f.ProductionAccuracy()
	if !ok || acc != 0.75 {
		t.Errorf("accuracy = %v, %v", acc, ok)
	}
	if err := f.UserFeedback("ghost", "x"); !errors.Is(err, ErrNoPrediction) {
		t.Errorf("missing event err = %v", err)
	}
}

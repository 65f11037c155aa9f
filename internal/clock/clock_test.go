package clock

import (
	"testing"
	"time"
)

func TestManual(t *testing.T) {
	epoch := time.Date(2025, 1, 6, 9, 0, 0, 0, time.UTC)
	m := NewManual(epoch)
	if !m.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", m.Now(), epoch)
	}
	m.Advance(90 * time.Minute)
	if got := Since(m, epoch); got != 90*time.Minute {
		t.Errorf("Since = %v, want 90m", got)
	}
	m.Set(epoch)
	if got := Since(m, epoch); got != 0 {
		t.Errorf("after Set, Since = %v, want 0", got)
	}
}

func TestSystemMovesForward(t *testing.T) {
	s := System{}
	a := s.Now()
	b := s.Now()
	if b.Before(a) {
		t.Errorf("system clock went backwards: %v then %v", a, b)
	}
}

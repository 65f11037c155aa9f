package cloud

import (
	"testing"

	"repro/internal/trace"
)

// With returns a new value and never writes into the receiver's storage,
// even when that storage has spare capacity (as With leaves after a pair
// replaces another): the receiver keeps its pairs, two values built from
// one base do not see each other's pairs, and a stamped key replaces the
// caller's pair.
func TestTagsWith(t *testing.T) {
	spare := make([]string, 0, 8)
	base := Tags{kv: append(spare, "lab", "lab1", "student", "s001")}

	traced := base.With(trace.Tag, "00000000000000ab")
	spot := base.With("pricing", "spot", "pool", "compute_liqid")
	moved := base.With("lab", "lab9")

	for key, want := range map[string]string{"lab": "lab1", "student": "s001", trace.Tag: "", "pricing": ""} {
		if got := base.Get(key); got != want {
			t.Errorf("base %s = %q after With, want %q", key, got, want)
		}
	}
	if got := traced.Get(trace.Tag); got != "00000000000000ab" {
		t.Errorf("traced %s = %q", trace.Tag, got)
	}
	if got := traced.Get("pricing"); got != "" {
		t.Errorf("traced sees a sibling's pricing = %q", got)
	}
	if got := spot.Get(trace.Tag); got != "" {
		t.Errorf("spot sees a sibling's %s = %q", trace.Tag, got)
	}
	if spot.Get("pricing") != "spot" || spot.Get("pool") != "compute_liqid" || spot.Get("student") != "s001" {
		t.Errorf("spot tags = %v", spot)
	}
	if got := moved.Get("lab"); got != "lab9" {
		t.Errorf("stamped lab = %q, want lab9", got)
	}
	if got := NewTags("pool", "caller", "pool", "stamp").Get("pool"); got != "stamp" {
		t.Errorf("later pair lost: pool = %q", got)
	}
}

// The zero value has no tags, and With on it builds a value of its own.
func TestTagsZeroValue(t *testing.T) {
	var none Tags
	if got := none.Get("lab"); got != "" {
		t.Errorf("zero Tags Get(lab) = %q", got)
	}
	if got := none.With("lab", "lab1").Get("lab"); got != "lab1" {
		t.Errorf("zero Tags With(lab) = %q", got)
	}
	if got := none.Get("lab"); got != "" {
		t.Errorf("zero Tags changed by With: %q", got)
	}
}

// Only a bug passes an odd number of arguments: every caller writes
// literal pairs.
func TestNewTagsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTags with an odd count did not panic")
		}
	}()
	NewTags("lab")
}

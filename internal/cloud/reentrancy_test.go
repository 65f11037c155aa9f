package cloud

import "testing"

// Regression (mlsyslint lockedcallback): List used to invoke the
// caller-provided filter while holding the cloud mutex, so a filter that
// called back into the Cloud deadlocked. The filter now runs on a
// snapshot outside the lock.
func TestListFilterMayReenter(t *testing.T) {
	c, _ := newTestCloud()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Launch(LaunchSpec{Project: "class", Name: name, Flavor: M1Small,
			Tags: NewTags("lab", "lab1")}); err != nil {
			t.Fatal(err)
		}
	}
	// Filter re-enters the Cloud: Get takes c.mu. Before the fix this
	// deadlocked the test.
	out := c.List(func(inst *Instance) bool {
		got, err := c.Get(inst.ID)
		return err == nil && got == inst
	})
	if len(out) != 3 {
		t.Fatalf("reentrant filter returned %d instances, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].ID >= out[i].ID {
			t.Errorf("List not sorted by ID: %q before %q", out[i-1].ID, out[i].ID)
		}
	}
}

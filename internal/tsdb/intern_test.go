package tsdb

import (
	"sync"
	"testing"
)

// Interning keys on the canonical %q-quoted signature, so label sets
// whose naive k=v joins would collide must get distinct handles, and
// the same set built in any pair order must get the same handle.
func TestInternSignatureCollision(t *testing.T) {
	in := NewInterner()

	// Classic injection collisions: `a="b,c" d="e"` vs `a="b" c,d="e"`
	// style values that a plain comma-join could not tell apart.
	tricky := []Labels{
		NewLabels(L("a", `b",c="d`)),
		NewLabels(L("a", "b"), L("c", "d")),
		NewLabels(L("a", "b,c=d")),
		NewLabels(L("a", "b"), L("c", "d,e=f")),
	}
	seen := map[*LabelSet]string{}
	for _, ls := range tricky {
		s := in.Intern(ls)
		if prev, dup := seen[s]; dup {
			t.Fatalf("distinct label sets %q and %q interned to the same handle %q",
				prev, ls.Signature(), s.Signature())
		}
		seen[s] = ls.Signature()
	}
	if in.Len() != len(tricky) {
		t.Fatalf("interned %d sets, want %d", in.Len(), len(tricky))
	}

	// Equal sets built in different orders share one handle with the
	// precomputed signature.
	a := in.Intern(NewLabels(L("x", "1"), L("y", "2")))
	b := in.Intern(NewLabels(L("y", "2"), L("x", "1")))
	if a != b {
		t.Fatal("equal label sets interned to different handles")
	}
	if a.Signature() != a.Labels().Signature() {
		t.Fatalf("cached signature %q != computed %q", a.Signature(), a.Labels().Signature())
	}

	// The interner copies: mutating the caller's slice must not corrupt
	// the handle.
	src := NewLabels(L("mut", "v"))
	h := in.Intern(src)
	src[0].Value = "changed"
	if h.Labels()[0].Value != "v" {
		t.Fatal("interned labels alias the caller's slice")
	}
}

// Concurrent interning of overlapping sets must be race-free (run under
// -race via make race) and must agree on one handle per distinct set.
func TestInternConcurrentScrapeSafe(t *testing.T) {
	in := NewInterner()
	const workers = 8
	sets := []Labels{
		NewLabels(L("shard", "s0")),
		NewLabels(L("shard", "s1")),
		NewLabels(L("shard", "s0"), L("site", "chi")),
		NewLabels(),
	}
	got := make([][]*LabelSet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*LabelSet, len(sets))
			for i := 0; i < 200; i++ {
				for j, ls := range sets {
					h := in.Intern(ls)
					if got[w][j] == nil {
						got[w][j] = h
					} else if got[w][j] != h {
						t.Errorf("worker %d saw two handles for %q", w, ls.Signature())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for j := range sets {
			if got[w][j] != got[0][j] {
				t.Fatalf("workers disagree on handle for set %d", j)
			}
		}
	}
	if in.Len() != len(sets) {
		t.Fatalf("interned %d sets, want %d", in.Len(), len(sets))
	}
}

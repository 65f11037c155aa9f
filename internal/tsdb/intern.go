package tsdb

import "sync"

// Label-set interning: the scrape hot path resolves every label set it
// will ever append to exactly once, up front, and from then on passes
// around a *LabelSet handle whose canonical signature was precomputed
// at intern time. Appends and selects key on that precomputed string
// (and the handle's small integer ID) instead of re-sorting and
// re-joining label pairs per sample — the contract DESIGN §14 calls
// "intern once, append forever".
//
// Identity is the canonical signature (Labels.Signature), which %q-quotes
// values: label sets whose naive `k=v,k=v` join would collide (values
// containing `,` `=` or quotes) intern to distinct handles, and equal
// sets always intern to the same handle regardless of construction
// order. Handles are immutable after creation.

// LabelSet is an interned canonical label set with a precomputed
// signature and a table-scoped integer ID. Obtain one from
// Interner.Intern; two handles from the same table are equal iff their
// pointers (equivalently IDs) are equal.
type LabelSet struct {
	id  int
	ls  Labels
	sig string
}

// Labels returns the canonical label set. The slice is shared and must
// not be mutated.
func (s *LabelSet) Labels() Labels { return s.ls }

// Signature returns the precomputed canonical signature, identical to
// Labels.Signature() but computed once at intern time.
func (s *LabelSet) Signature() string { return s.sig }

// Interner deduplicates label sets into immutable LabelSet handles. All
// methods are safe for concurrent use.
type Interner struct {
	mu    sync.RWMutex
	bySig map[string]*LabelSet
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{bySig: map[string]*LabelSet{}}
}

// Intern returns the canonical handle for ls, creating it on first use.
// ls must be canonical (built by NewLabels / LabelsFromAttrs / With);
// the labels are copied, so the caller may reuse its slice.
func (in *Interner) Intern(ls Labels) *LabelSet {
	sig := ls.Signature()
	in.mu.RLock()
	s := in.bySig[sig]
	in.mu.RUnlock()
	if s != nil {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s = in.bySig[sig]; s == nil {
		s = &LabelSet{id: len(in.bySig), ls: append(Labels(nil), ls...), sig: sig}
		in.bySig[sig] = s
	}
	return s
}

// Len returns the number of distinct label sets interned so far.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.bySig)
}

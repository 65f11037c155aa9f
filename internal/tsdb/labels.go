package tsdb

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// Label is one key/value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// Labels is a sorted, deduplicated label set. Build one with NewLabels
// (or LabelsFromAttrs); the constructors enforce the ordering invariant
// that the rest of the package relies on for deterministic signatures.
type Labels []Label

// NewLabels builds a canonical label set from key/value pairs. Keys are
// sorted; a later duplicate key wins.
func NewLabels(pairs ...Label) Labels {
	if len(pairs) == 0 {
		return nil
	}
	kv := make(map[string]string, len(pairs))
	for _, p := range pairs {
		kv[p.Key] = p.Value
	}
	out := make(Labels, 0, len(kv))
	for k, v := range kv {
		out = append(out, Label{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// L is shorthand for one label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LabelsFromAttrs converts telemetry attributes (as produced by
// telemetry.ParseLabeled) into a canonical label set.
func LabelsFromAttrs(attrs []telemetry.Attr) Labels {
	if len(attrs) == 0 {
		return nil
	}
	pairs := make([]Label, len(attrs))
	for i, a := range attrs {
		pairs[i] = Label{a.Key, a.Value}
	}
	return NewLabels(pairs...)
}

// Get returns the value for key ("" if absent).
func (ls Labels) Get(key string) string {
	for _, l := range ls {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// With returns a copy with key set to value (replacing any existing).
func (ls Labels) With(key, value string) Labels {
	out := make([]Label, 0, len(ls)+1)
	out = append(out, ls...)
	out = append(out, Label{key, value})
	return NewLabels(out...)
}

// Without returns a copy with the named keys removed.
func (ls Labels) Without(keys ...string) Labels {
	drop := map[string]bool{}
	for _, k := range keys {
		drop[k] = true
	}
	var out Labels
	for _, l := range ls {
		if !drop[l.Key] {
			out = append(out, l)
		}
	}
	return out
}

// Keep returns a copy restricted to the named keys.
func (ls Labels) Keep(keys ...string) Labels {
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
	}
	var out Labels
	for _, l := range ls {
		if want[l.Key] {
			out = append(out, l)
		}
	}
	return out
}

// Signature renders the canonical form `{k="v",k2="v2"}` (`{}` when
// empty). Two label sets are equal iff their signatures are equal; the
// DB keys series by name+signature.
func (ls Labels) Signature() string {
	var buf [128]byte
	return string(ls.appendSignature(buf[:0], ""))
}

// appendSignature appends the signature of ls without the label named
// drop ("" drops nothing) to dst. Values are quoted by
// strconv.AppendQuote, which writes the bytes of fmt's %q.
func (ls Labels) appendSignature(dst []byte, drop string) []byte {
	dst = append(dst, '{')
	first := true
	for _, l := range ls {
		if drop != "" && l.Key == drop {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, l.Value)
	}
	return append(dst, '}')
}

// String renders the signature without the braces when empty.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return "{}"
	}
	return ls.Signature()
}

// MatchOp is a label-matcher comparison operator.
type MatchOp int

const (
	MatchEq    MatchOp = iota // =
	MatchNotEq                // !=
	MatchRe                   // =~ (full-string anchored)
	MatchNotRe                // !~
)

func (op MatchOp) String() string {
	switch op {
	case MatchEq:
		return "="
	case MatchNotEq:
		return "!="
	case MatchRe:
		return "=~"
	case MatchNotRe:
		return "!~"
	}
	return "?"
}

// Matcher is one label constraint in a selector.
type Matcher struct {
	Key   string
	Op    MatchOp
	Value string
	re    *regexp.Regexp
}

// NewMatcher builds a matcher; regex operators compile Value anchored at
// both ends (Prometheus semantics).
func NewMatcher(key string, op MatchOp, value string) (Matcher, error) {
	m := Matcher{Key: key, Op: op, Value: value}
	if op == MatchRe || op == MatchNotRe {
		re, err := regexp.Compile("^(?:" + value + ")$")
		if err != nil {
			return Matcher{}, fmt.Errorf("tsdb: bad label regex %q: %w", value, err)
		}
		m.re = re
	}
	return m, nil
}

// Matches reports whether the label set satisfies the matcher. A missing
// label reads as the empty string, so `{k!="v"}` matches series without
// the label — same as Prometheus.
func (m Matcher) Matches(ls Labels) bool {
	v := ls.Get(m.Key)
	switch m.Op {
	case MatchEq:
		return v == m.Value
	case MatchNotEq:
		return v != m.Value
	case MatchRe:
		return m.re.MatchString(v)
	case MatchNotRe:
		return !m.re.MatchString(v)
	}
	return false
}

func (m Matcher) String() string {
	return fmt.Sprintf("%s%s%q", m.Key, m.Op, m.Value)
}

// matchAll reports whether every matcher accepts the label set.
func matchAll(ms []Matcher, ls Labels) bool {
	for _, m := range ms {
		if !m.Matches(ls) {
			return false
		}
	}
	return true
}

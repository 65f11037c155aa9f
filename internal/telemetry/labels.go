package telemetry

import (
	"cmp"
	"strings"
)

// Labeled names encode a label set into an instrument name so that the
// existing flat-name Bus can carry dimensional metrics without changing
// its registry: "cloud.launches{flavor=m1.large,project=mlops}". Keys
// are sorted, so the same label set always produces the same instrument
// (the map key in the Bus registry IS the series identity). The tsdb
// collector parses these back into name + labels at scrape time.
//
// Keys and values are sanitized: the structural characters `{ } = ,`
// and whitespace are replaced with '_' so the encoding stays
// unambiguous. Values are expected to be low-cardinality (flavor names,
// host names, policies) — every distinct label set is a live instrument
// on the bus.

// Labeled renders base plus a label set as a canonical instrument name.
// With no labels it returns base unchanged. Attribute order does not
// matter; keys are sorted. Later duplicate keys win.
//
// Instrumented code calls Labeled on every emit, so it allocates only
// the name: up to stackLabels pairs are sorted in a stack array, and
// since sanitizing maps each byte to one byte, keys compare and the name
// is sized straight from the raw strings.
func Labeled(base string, labels ...Attr) string {
	if len(labels) == 0 {
		return base
	}
	var stack [stackLabels]Attr
	pairs := stack[:0]
	if len(labels) > len(stack) {
		pairs = make([]Attr, 0, len(labels))
	}
	for _, l := range labels {
		i := 0
		for i < len(pairs) && compareSanitized(pairs[i].Key, l.Key) < 0 {
			i++
		}
		if i < len(pairs) && compareSanitized(pairs[i].Key, l.Key) == 0 {
			pairs[i].Value = l.Value
			continue
		}
		pairs = append(pairs, Attr{})
		copy(pairs[i+1:], pairs[i:])
		pairs[i] = l
	}
	n := len(base) + len(pairs) + 1 // braces, '=' per pair, ',' between
	for _, p := range pairs {
		n += len(p.Key) + 1 + len(p.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		writeSanitized(&b, p.Key)
		b.WriteByte('=')
		writeSanitized(&b, p.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// stackLabels is how many label pairs Labeled sorts without allocating.
const stackLabels = 8

// ParseLabeled splits a canonical labeled name back into its base name
// and label attributes (sorted by key). Names without a label block come
// back with nil labels; a malformed block is treated as part of the base
// name rather than guessed at.
func ParseLabeled(name string) (base string, labels []Attr) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	body := name[open+1 : len(name)-1]
	base = name[:open]
	if body == "" {
		return base, nil
	}
	for _, pair := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return name, nil // malformed: not ours to reinterpret
		}
		labels = append(labels, Attr{Key: k, Value: v})
	}
	return base, labels
}

// sanitizeByte maps the structural characters and whitespace to '_'.
func sanitizeByte(c byte) byte {
	switch c {
	case '{', '}', '=', ',', ' ', '\t', '\n':
		return '_'
	}
	return c
}

// compareSanitized compares the sanitized forms of a and b, as
// strings.Compare would, without building them.
func compareSanitized(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if x, y := sanitizeByte(a[i]), sanitizeByte(b[i]); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(a), len(b))
}

// writeSanitized writes the sanitized form of s.
func writeSanitized(b *strings.Builder, s string) {
	clean := 0
	for i := 0; i < len(s); i++ {
		if c := sanitizeByte(s[i]); c != s[i] {
			b.WriteString(s[clean:i])
			b.WriteByte(c)
			clean = i + 1
		}
	}
	b.WriteString(s[clean:])
}

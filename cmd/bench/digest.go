package main

import (
	"bufio"
	"embed"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// digest is one op's numeric result as named values in a fixed order.
// It holds numbers, never rendered text, so a change that adds a report
// section leaves every digest alone.
type digest struct {
	names []string
	vals  []float64
}

func (d *digest) add(name string, v float64) {
	d.names = append(d.names, name)
	d.vals = append(d.vals, v)
}

func (d *digest) addInt(name string, v int64) { d.add(name, float64(v)) }

// get returns the value named name.
func (d *digest) get(name string) (float64, bool) {
	for i, n := range d.names {
		if n == name {
			return d.vals[i], true
		}
	}
	return 0, false
}

// subset returns the entries whose names start with prefix.
func (d *digest) subset(prefix string) *digest {
	out := &digest{}
	for i, n := range d.names {
		if strings.HasPrefix(n, prefix) {
			out.add(n, d.vals[i])
		}
	}
	return out
}

// text renders the digest as "name value" lines with every float digit.
func (d *digest) text() string {
	var b strings.Builder
	for i, n := range d.names {
		b.WriteString(n)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(d.vals[i], 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// sum is a short fingerprint of the exact digest.
func (d *digest) sum() string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.text())) // hash.Hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

// diff reports the first difference between two digests. tol is the
// relative tolerance on values; 0 demands exact equality.
func (d *digest) diff(o *digest, tol float64) error {
	if len(d.names) != len(o.names) {
		return fmt.Errorf("digest has %d values, want %d", len(d.names), len(o.names))
	}
	for i, n := range d.names {
		if o.names[i] != n {
			return fmt.Errorf("digest value %d is %q, want %q", i, n, o.names[i])
		}
		a, b := d.vals[i], o.vals[i]
		if a == b || (math.IsNaN(a) && math.IsNaN(b)) || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) {
			continue
		}
		return fmt.Errorf("%s = %v, want %v", n, a, b)
	}
	return nil
}

func parseDigest(text string) (*digest, error) {
	d := &digest{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed digest line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("digest line %q: %w", line, err)
		}
		d.add(name, v)
	}
	return d, sc.Err()
}

// goldenTol absorbs float reassociation in the last bits: a change that
// keeps the simulation's results passes, one that moves any of them
// fails.
const goldenTol = 1e-9

//go:embed testdata/*.golden
var goldens embed.FS

func goldenPath(workload string) string { return "testdata/" + workload + ".seed1.golden" }

// checkGolden compares a seed-1 digest of a full-size workload with the
// committed golden.
func checkGolden(workload string, d *digest) error {
	data, err := goldens.ReadFile(goldenPath(workload))
	if err != nil {
		return fmt.Errorf("golden for %s: %w", workload, err)
	}
	want, err := parseDigest(string(data))
	if err != nil {
		return fmt.Errorf("golden for %s: %w", workload, err)
	}
	if err := d.diff(want, goldenTol); err != nil {
		return fmt.Errorf("seed-1 golden mismatch: %w", err)
	}
	return nil
}

// Package maprange is a golden-test fixture for the maprange check. It
// defines its own Acc/Component shapes (the loader resolves stdlib
// imports only); the check matches aggregate and log sinks by type and
// method name.
package maprange

import (
	"fmt"
	"sort"
	"strings"
)

// Acc mirrors repro/internal/stats.Acc: a mergeable aggregate whose
// merge order must never depend on map iteration.
type Acc struct{ SumMicro int64 }

func (a *Acc) Add(micro int64) { a.SumMicro += micro }

// Component mirrors repro/internal/logging.Component.
type Component struct{}

func (c *Component) Info(msg string, attrs ...string) {}

// RenderBad prints rows in map order: the output bytes differ run to run.
func RenderBad(rows map[string]int) {
	for name, n := range rows { // want `flows into rendered output \(fmt\.Printf\)`
		fmt.Printf("%s=%d\n", name, n)
	}
}

// AggregateBad folds map-ordered values into a mergeable aggregate.
func AggregateBad(a *Acc, byRow map[string]int64) {
	for _, micro := range byRow { // want `flows into mergeable aggregate \(Acc\)\.Add`
		a.Add(micro)
	}
}

// EmitBad writes log records in map order.
func EmitBad(c *Component, rows map[string]int) {
	for name := range rows { // want `flows into log record \(\(Component\)\.Info\)`
		c.Info("row", name)
	}
}

// render is an intermediate hop: the sink is one call away.
func render(w *strings.Builder, line string) {
	w.WriteString(line)
}

// IndirectBad reaches a rendered-output sink through the call graph, not
// by calling a primitive in the loop body itself.
func IndirectBad(w *strings.Builder, rows map[string]int) {
	for name := range rows { // want `flows into a sink via maprange\.render`
		render(w, name)
	}
}

// FloatBad accumulates float64 in map order; addition is not associative.
func FloatBad(hours map[string]float64) float64 {
	var total float64
	for _, h := range hours { // want `feeds float \+= accumulation into "total"`
		total += h
	}
	return total
}

// ConcatBad builds output by string concatenation in map order.
func ConcatBad(rows map[string]int) string {
	var out string
	for name := range rows { // want `feeds string concatenation into "out"`
		out += name
	}
	return out
}

// SortedOK is the pattern the check wants: collect, sort, then loop.
func SortedOK(rows map[string]int) {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, rows[k])
	}
}

// CountOK folds into an int: integer addition is associative and
// commutative, so iteration order cannot change the result.
func CountOK(rows map[string]int) int {
	total := 0
	for _, n := range rows {
		total += n
	}
	return total
}

// LocalFloatOK resets its accumulator every iteration, so order cannot
// accumulate into anything.
func LocalFloatOK(rows map[string]float64) {
	for _, h := range rows {
		scaled := 0.0
		scaled += h * 2
		_ = scaled
	}
}

// SuppressedDebugDump is deliberate: a debugging helper whose output is
// never compared byte-for-byte.
func SuppressedDebugDump(rows map[string]int) {
	//lint:ignore maprange debug-only dump, output is never diffed
	for name, n := range rows {
		fmt.Printf("%s=%d\n", name, n)
	}
}

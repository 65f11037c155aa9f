package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// tracer records wall-clock spans around the benchmark's calls into the
// repository's packages, plus per-op counts. Span names are
// "<module>.<func>"; the module is the layer. A nil *tracer records
// nothing, so untraced ops run the same code without reading the clock.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int32
	counts []tally
}

type span struct {
	name       string
	parent     int32 // index into spans, -1 for the root
	start, end time.Duration
}

type tally struct {
	name string
	v    float64
}

func (t *tracer) reset() {
	t.t0 = time.Now()
	t.spans = t.spans[:0]
	t.open = t.open[:0]
	t.counts = t.counts[:0]
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	s := span{name: name, parent: -1, start: time.Since(t.t0)}
	if n := len(t.open); n > 0 {
		s.parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which begin returned as id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// count records a per-op value.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, tally{name, v})
}

// heap returns the process's cumulative allocated bytes and objects, or
// zeros when t is nil. Reading them stops the world briefly, so only
// traced ops pay for it.
func (t *tracer) heap() (bytes, objects uint64) {
	if t == nil {
		return 0, 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// maxChromeSpans bounds the spans kept for the Chrome export: whole ops
// are kept until the next one would pass it. The per-layer numbers
// always cover every traced op.
const maxChromeSpans = 200_000

// layers folds traced ops into per-span and per-layer totals.
type layers struct {
	ops       int
	spanMs    map[string]float64   // span name -> duration summed over ops
	callUs    map[string][]float64 // span name -> every call's duration
	counts    map[string][]float64 // count name -> one value per op
	layerSelf map[string]float64   // layer -> self time summed over ops, ms
	layerN    map[string]int       // layer -> calls over all ops
	opMs      float64              // root durations summed over ops
	coverage  []float64            // per op: share of the root covered by child spans
	run       map[string]float64   // values measured around the ops, not inside them
	chrome    []chromeEvent
}

func newLayers() *layers {
	return &layers{
		spanMs:    map[string]float64{},
		callUs:    map[string][]float64{},
		counts:    map[string][]float64{},
		layerSelf: map[string]float64{},
		layerN:    map[string]int{},
		run:       map[string]float64{},
	}
}

type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Span   int32 `json:"span"`
	Parent int32 `json:"parent"`
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// add folds one traced op whose root span is t.spans[0]. offset places
// the op on the run's timeline in the Chrome export.
func (l *layers) add(t *tracer, offset time.Duration) {
	if len(t.spans) == 0 {
		return
	}
	l.ops++
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		l.spanMs[s.name] += ms(d)
		l.callUs[s.name] = append(l.callUs[s.name], float64(d)/float64(time.Microsecond))
		layer := layerOf(s.name)
		l.layerSelf[layer] += ms(d - child[i])
		l.layerN[layer]++
	}
	root := t.spans[0].end - t.spans[0].start
	l.opMs += ms(root)
	cov := 1.0
	if root > 0 {
		cov = float64(child[0]) / float64(root)
	}
	l.coverage = append(l.coverage, cov)
	for _, c := range t.counts {
		l.counts[c.name] = append(l.counts[c.name], c.v)
	}
	if len(l.chrome)+len(t.spans) > maxChromeSpans {
		return
	}
	tid := l.ops
	for i, s := range t.spans {
		l.chrome = append(l.chrome, chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts:  float64(offset+s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: tid,
			Args: chromeArgs{Span: int32(i), Parent: s.parent},
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOpMs is the mean per-op time spent in the named spans.
func (l *layers) perOpMs(names ...string) float64 {
	if l.ops == 0 {
		return 0
	}
	var t float64
	for _, n := range names {
		t += l.spanMs[n]
	}
	return t / float64(l.ops)
}

// count is the median per-op value of a count.
func (l *layers) count(name string) float64 { return quantile(l.counts[name], 0.5) }

// worstCoverage is the smallest share of an op covered by layer spans.
func (l *layers) worstCoverage() float64 {
	if len(l.coverage) == 0 {
		return 0
	}
	m := l.coverage[0]
	for _, c := range l.coverage[1:] {
		if c < m {
			m = c
		}
	}
	return m
}

// writeTable prints each layer's calls, self time per op and share of
// the op, largest self time first.
func (l *layers) writeTable(w io.Writer) {
	if l.ops == 0 {
		return
	}
	names := make([]string, 0, len(l.layerSelf))
	for n := range l.layerSelf {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if l.layerSelf[names[i]] != l.layerSelf[names[j]] {
			return l.layerSelf[names[i]] > l.layerSelf[names[j]]
		}
		return names[i] < names[j]
	})
	ops := float64(l.ops)
	fmt.Fprintf(w, "%-14s %12s %14s %8s\n", "layer", "calls/op", "self ms/op", "share")
	for _, n := range names {
		self := l.layerSelf[n] / ops
		fmt.Fprintf(w, "%-14s %12.1f %14.3f %7.1f%%\n",
			n, float64(l.layerN[n])/ops, self, 100*self/(l.opMs/ops))
	}
}

// writeChrome writes the kept spans as Chrome trace-event JSON, one
// thread per op.
func (l *layers) writeChrome(path string) error {
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{l.chrome, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

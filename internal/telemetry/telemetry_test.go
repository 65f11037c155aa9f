package telemetry

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	b := New()
	b.Counter("c").Add(3)
	b.Counter("c").Inc()
	if got := b.Counter("c").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	b.Counter("c").Add(-5) // negative deltas ignored: counters are monotonic
	if got := b.Counter("c").Value(); got != 4 {
		t.Errorf("counter after negative add = %d, want 4", got)
	}

	b.Gauge("g").Set(2.5)
	b.Gauge("g").Add(-1)
	if got := b.Gauge("g").Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}

	h := b.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := b.Snapshot()
	m, ok := Find(snap, "h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if m.Count != 4 || m.Sum != 105 {
		t.Errorf("count/sum = %d/%v, want 4/105", m.Count, m.Sum)
	}
	wantCounts := []int64{1, 1, 1, 1} // <=1, <=2, <=4, overflow
	for i, bk := range m.Buckets {
		if bk.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, bk.Count, wantCounts[i])
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].Bound, 1) {
		t.Error("last bucket should be overflow (+Inf)")
	}
}

func TestHistogramQuantile(t *testing.T) {
	b := New()
	h := b.Histogram("lat", LinearBuckets(1, 1, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	m, _ := Find(b.Snapshot(), "lat")
	p50 := m.Quantile(0.5)
	if p50 < 3 || p50 > 7 {
		t.Errorf("p50 = %v, want around 5", p50)
	}
	if q := m.Quantile(0); q < 0 {
		t.Errorf("q0 = %v", q)
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Counter("c").Inc()
	b.Gauge("g").Set(1)
	b.Histogram("h", nil).Observe(1)
	if b.Snapshot() != nil {
		t.Error("nil bus should report empty state")
	}
}

// Updating a registered instrument is what every instrumented component
// pays per operation, so it must not allocate.
func TestInstrumentUpdatesAllocateNothing(t *testing.T) {
	b := New()
	c := b.Counter("c")
	g := b.Gauge("g")
	h := b.Histogram("h", LatencyBuckets())
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", c.Inc},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.01) }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExpBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExpBuckets = %v", exp)
	}
	lb := LatencyBuckets()
	if lb[0] != 0.001 || len(lb) != 14 {
		t.Errorf("LatencyBuckets = %v", lb)
	}
}

// Snapshot must build one sized output slice per call, and
// SnapshotAppend must reuse the caller's backing array (including the
// per-metric bucket slices) so a steady-state scraper allocates
// nothing. Both must keep the deterministic name-then-kind order, which
// map iteration does not give.
func TestSnapshotAppendReuseAndOrder(t *testing.T) {
	b := New()
	// Names unsorted at registration time.
	b.Counter("zz.ops").Add(3)
	b.Counter("aa.ops").Add(1)
	b.Gauge("mm.depth").Set(7)
	h := b.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(9)

	buf := b.SnapshotAppend(nil)
	var names []string
	for _, m := range buf {
		names = append(names, m.Name)
	}
	want := []string{"aa.ops", "lat", "mm.depth", "zz.ops"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
	if len(buf[1].Buckets) != 3 {
		t.Fatalf("histogram buckets = %+v", buf[1].Buckets)
	}

	// Re-snapshot into the same buffer: identical contents, same array.
	first := &buf[0]
	again := b.SnapshotAppend(buf[:0])
	if len(again) != len(buf) || &again[0] != first {
		t.Fatal("SnapshotAppend did not reuse the caller's backing array")
	}
	allocs := testing.AllocsPerRun(100, func() {
		again = b.SnapshotAppend(again[:0])
	})
	if allocs > 0 {
		t.Errorf("steady-state SnapshotAppend allocates %.1f/op, want 0", allocs)
	}
	if v, ok := Find(again, "zz.ops"); !ok || v.Value != 3 {
		t.Fatalf("reused snapshot content wrong: %+v", again)
	}
}

// Instruments lists live handles in the same deterministic order as
// Snapshot, and its generation counter only moves on registration.
func TestInstrumentsListingAndGen(t *testing.T) {
	b := New()
	g0 := b.Gen()
	c := b.Counter("x.ops")
	if b.Gen() == g0 {
		t.Fatal("registration did not bump the generation")
	}
	g1 := b.Gen()
	b.Counter("x.ops").Inc() // lookup, not a registration
	c.Add(5)
	if b.Gen() != g1 {
		t.Fatal("lookup/update moved the generation")
	}
	b.Histogram("a.lat", []float64{1}).Observe(0.5)
	insts := b.Instruments(nil)
	if len(insts) != 2 || insts[0].Name != "a.lat" || insts[0].Kind != "histogram" ||
		insts[1].Name != "x.ops" || insts[1].Kind != "counter" {
		t.Fatalf("instruments = %+v", insts)
	}
	if insts[1].Counter.Value() != 6 {
		t.Fatalf("listed counter handle is not live: %d", insts[1].Counter.Value())
	}
}

// The registry must be safe under concurrent first-use registration and
// updates while a reader snapshots it, and return one canonical handle
// per name (run under -race via make race).
func TestShardedRegistryConcurrentLabeled(t *testing.T) {
	b := New()
	const workers, names = 8, 32
	got := make([][]*Counter, workers)
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Counter, names)
			for i := 0; i < names; i++ {
				name := Labeled("reg.ops", String("shard", fmt.Sprintf("s%02d", i)))
				got[w][i] = b.Counter(name)
				got[w][i].Inc()
				b.Gauge(name).Set(float64(i))
				b.Histogram(name, []float64{1}).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	for w := 1; w < workers; w++ {
		for i := 0; i < names; i++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d got a different handle for name %d", w, i)
			}
		}
	}
	for i := 0; i < names; i++ {
		if v := got[0][i].Value(); v != workers {
			t.Errorf("counter %d = %d, want %d", i, v, workers)
		}
	}
	if n := len(b.Instruments(nil)); n != 3*names {
		t.Errorf("instrument count = %d, want %d", n, 3*names)
	}
}

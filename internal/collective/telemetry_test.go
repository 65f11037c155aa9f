package collective

import (
	"testing"

	"repro/internal/telemetry"
)

func TestCollectiveTelemetryBytes(t *testing.T) {
	bus := telemetry.New()
	SetTelemetry(bus)
	defer SetTelemetry(nil)

	const n, length = 4, 100
	mk := func() [][]float64 {
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = make([]float64, length)
			for j := range vs[i] {
				vs[i][j] = float64(i + j)
			}
		}
		return vs
	}
	if err := RingAllReduce(mk()); err != nil {
		t.Fatal(err)
	}
	if err := NaiveAllReduce(mk()); err != nil {
		t.Fatal(err)
	}
	if err := TreeAllReduce(mk()); err != nil {
		t.Fatal(err)
	}

	// Every algorithm moves 2(n-1)·length elements × 8 bytes here.
	want := float64(2 * (n - 1) * length * 8)
	snap := bus.Snapshot()
	for _, algo := range []string{"ring", "naive", "tree"} {
		m, ok := telemetry.Find(snap, "collective."+algo+".bytes")
		if !ok || m.Value != want {
			t.Errorf("collective.%s.bytes = %v (found=%v), want %v", algo, m.Value, ok, want)
		}
	}
	if m, _ := telemetry.Find(snap, "collective.ops"); m.Value != 3 {
		t.Errorf("collective.ops = %v, want 3", m.Value)
	}
	// One op_bytes observation per op, each of the full payload.
	if h, _ := telemetry.Find(snap, "collective.op_bytes"); h.Count != 3 || h.Sum != 3*want {
		t.Errorf("collective.op_bytes = %d observations, %v bytes; want 3, %v", h.Count, h.Sum, 3*want)
	}

	// Single-worker collectives are no-ops and must not report traffic.
	if err := RingAllReduce([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if m, _ := telemetry.Find(bus.Snapshot(), "collective.ops"); m.Value != 3 {
		t.Errorf("single-worker op recorded traffic: ops = %v", m.Value)
	}
}

package report

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func newPopulatedBus() *telemetry.Bus {
	bus := telemetry.New()
	bus.Counter("cloud.launches").Add(42)
	bus.Gauge("cloud.instances_active").Set(7)
	h := bus.Histogram("serve.batch_size", telemetry.LinearBuckets(1, 1, 8))
	for _, v := range []float64{1, 2, 4, 4, 8} {
		h.Observe(v)
	}
	return bus
}

func TestMetricsRendering(t *testing.T) {
	out := Metrics(newPopulatedBus().Snapshot())
	for _, want := range []string{"cloud.launches", "counter", "42",
		"cloud.instances_active", "gauge", "serve.batch_size", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
}

package collective

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// The collectives are pure functions, so instrumentation attaches at
// package level (the Prometheus default-registry pattern): SetTelemetry
// installs a bus and every subsequent collective op reports the bytes it
// moved. A nil bus (the default) disables instrumentation.
var tel atomic.Pointer[telemetry.Bus]

// SetTelemetry installs the bus used by all collective ops (nil
// disables). Safe to call concurrently with running collectives.
func SetTelemetry(b *telemetry.Bus) { tel.Store(b) }

// recordOp reports one completed collective and the exact number of
// float64 elements it moved between workers (8 bytes each). Counters
// accumulate per-algorithm totals so the crossover analysis can cite
// measured traffic, not just the alpha-beta model.
func recordOp(algo string, elemsMoved int) {
	b := tel.Load()
	if b == nil {
		return
	}
	bytes := int64(elemsMoved) * 8
	b.Counter("collective.ops").Inc()
	b.Counter("collective." + algo + ".bytes").Add(bytes)
	b.Counter(telemetry.Labeled("collective.bytes",
		telemetry.String("algo", algo))).Add(bytes)
	b.Histogram("collective.op_bytes", telemetry.ExpBuckets(1024, 4, 12)).Observe(float64(bytes))
}

package report

import (
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Metrics renders a telemetry snapshot as an aligned table: counters and
// gauges with their values, histograms with count/mean/p50/p99. This is
// what `chameleonctl metrics` prints and what cost reports embed so every
// aggregate figure can cite the counts behind it.
func Metrics(snap []telemetry.Metric) string {
	rows := [][]string{{"metric", "kind", "value", "count", "mean", "p50", "p99"}}
	for _, m := range snap {
		switch m.Kind {
		case "histogram":
			rows = append(rows, []string{m.Name, m.Kind, "",
				fmt.Sprintf("%d", m.Count),
				fmt.Sprintf("%.4g", m.Mean()),
				fmt.Sprintf("%.4g", m.Quantile(0.5)),
				fmt.Sprintf("%.4g", m.Quantile(0.99))})
		default:
			rows = append(rows, []string{m.Name, m.Kind,
				trimFloat(m.Value), "", "", "", ""})
		}
	}
	return Table(rows)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

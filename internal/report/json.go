package report

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/telemetry"
)

// JSON shape for `chameleonctl metrics -json`. Bucket bounds are
// strings because the overflow bound is +Inf, which JSON numbers cannot
// represent ("+Inf", matching the TSDB's le label).

type metricJSON struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Value   *float64     `json:"value,omitempty"`
	Count   *int64       `json:"count,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Buckets []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// MetricsJSON renders a telemetry snapshot as a JSON array, one object
// per metric, in snapshot (sorted-name) order.
func MetricsJSON(snap []telemetry.Metric) (string, error) {
	out := make([]metricJSON, 0, len(snap))
	for _, m := range snap {
		j := metricJSON{Name: m.Name, Kind: m.Kind}
		if m.Kind == "histogram" {
			count, sum := m.Count, m.Sum
			j.Count, j.Sum = &count, &sum
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				j.Buckets = append(j.Buckets, bucketJSON{LE: formatLE(b.Bound), Count: cum})
			}
		} else {
			v := m.Value
			j.Value = &v
		}
		out = append(out, j)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}

func formatLE(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Package monitor implements the Unit-7 evaluation-and-monitoring stack:
// a small metric time-series store with window queries, statistical drift
// detectors (two-sample KS and PSI) for prediction monitoring without
// ground-truth labels, threshold alerting, and online evaluation —
// shadow deployments, canary comparison, and A/B tests with a two-
// proportion z-test (online.go).
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// ErrNoData is returned when a query window contains no observations.
var ErrNoData = errors.New("monitor: no data in window")

// Point is one observation of a metric.
type Point struct {
	T float64 // timestamp (simulated hours or any monotone unit)
	V float64
}

// TSDB is an in-memory append-optimized metric store, the stand-in for
// the Prometheus instance the lab deploys. Safe for concurrent use.
type TSDB struct {
	mu     sync.RWMutex
	series map[string][]Point
}

// NewTSDB returns an empty store.
func NewTSDB() *TSDB {
	return &TSDB{series: map[string][]Point{}}
}

// Add appends an observation. Out-of-order timestamps are tolerated and
// sorted lazily at query time.
func (db *TSDB) Add(name string, t, v float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.series[name] = append(db.series[name], Point{t, v})
}

// Query returns observations with T in [from, to], in time order.
func (db *TSDB) Query(name string, from, to float64) []Point {
	db.mu.RLock()
	pts := append([]Point(nil), db.series[name]...)
	db.mu.RUnlock()
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	var out []Point
	for _, p := range pts {
		if p.T >= from && p.T <= to {
			out = append(out, p)
		}
	}
	return out
}

// Values returns just the values in a window.
func (db *TSDB) Values(name string, from, to float64) []float64 {
	pts := db.Query(name, from, to)
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// WindowStats summarizes a metric over a window.
func (db *TSDB) WindowStats(name string, from, to float64) (stats.Summary, error) {
	vs := db.Values(name, from, to)
	if len(vs) == 0 {
		return stats.Summary{}, fmt.Errorf("%w: %s [%v, %v]", ErrNoData, name, from, to)
	}
	return stats.Summarize(vs), nil
}

// DriftReport is the outcome of one drift check.
type DriftReport struct {
	KS       float64
	KSPValue float64
	PSI      float64
	Drifted  bool
	Reason   string
}

// DriftDetector compares live feature or prediction distributions to a
// training-time reference — the lab's answer to "how do you notice
// degradation when ground-truth labels aren't available".
type DriftDetector struct {
	Reference []float64
	// KSAlpha is the significance level for the KS test (default 0.01).
	KSAlpha float64
	// PSIThreshold flags a major shift (default 0.25).
	PSIThreshold float64
	// Bins for the PSI histogram (default 10).
	Bins int
}

// NewDriftDetector returns a detector with conventional thresholds.
func NewDriftDetector(reference []float64) *DriftDetector {
	return &DriftDetector{Reference: reference, KSAlpha: 0.01, PSIThreshold: 0.25, Bins: 10}
}

// Check evaluates a live sample against the reference.
func (d *DriftDetector) Check(current []float64) DriftReport {
	alpha := d.KSAlpha
	if alpha == 0 {
		alpha = 0.01
	}
	psiTh := d.PSIThreshold
	if psiTh == 0 {
		psiTh = 0.25
	}
	bins := d.Bins
	if bins == 0 {
		bins = 10
	}
	r := DriftReport{
		KS:  stats.KSStatistic(d.Reference, current),
		PSI: stats.PSI(d.Reference, current, bins),
	}
	r.KSPValue = stats.KSPValue(r.KS, len(d.Reference), len(current))
	switch {
	case r.KSPValue < alpha && r.PSI > psiTh:
		r.Drifted = true
		r.Reason = fmt.Sprintf("KS p=%.4g and PSI=%.2f both exceed thresholds", r.KSPValue, r.PSI)
	case r.KSPValue < alpha:
		r.Drifted = true
		r.Reason = fmt.Sprintf("KS p=%.4g below alpha %.3g", r.KSPValue, alpha)
	case r.PSI > psiTh:
		r.Drifted = true
		r.Reason = fmt.Sprintf("PSI %.2f above threshold %.2f", r.PSI, psiTh)
	}
	return r
}

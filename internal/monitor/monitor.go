// Package monitor implements the Unit-7 evaluation-and-monitoring
// checks: statistical drift detection (two-sample KS and PSI) for
// prediction monitoring without ground-truth labels, canary comparison
// of error rates with a promote/rollback verdict (online.go), and
// production feedback that estimates accuracy from user corrections
// (feedback.go). Metrics are stored and queried by internal/tsdb.
package monitor

import (
	"fmt"

	"repro/internal/stats"
)

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

package course

import (
	"math"
	"testing"

	"repro/internal/cloud"
)

func TestRowsMatchTable1Totals(t *testing.T) {
	// The catalog's targets must sum to the paper's published totals.
	var inst, fip float64
	for _, r := range Rows() {
		inst += r.TargetHours * Enrollment
		fip += r.TargetFIPHours * Enrollment
	}
	if math.Abs(inst-Paper().LabInstanceHours) > 1 {
		t.Errorf("sum of targets = %.0f, want %.0f", inst, Paper().LabInstanceHours)
	}
	if math.Abs(fip-Paper().LabFIPHours) > 1 {
		t.Errorf("sum of FIP targets = %.0f, want %.0f", fip, Paper().LabFIPHours)
	}
}

func TestSharesSumToOnePerAssignment(t *testing.T) {
	sums := map[string]float64{}
	for _, r := range Rows() {
		sums[r.Assignment] += r.Share
	}
	for a, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("assignment %q shares sum to %v", a, s)
		}
	}
}

func TestRowInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rows() {
		if seen[r.ID] {
			t.Errorf("duplicate row ID %q", r.ID)
		}
		seen[r.ID] = true
		if r.ExpectedHours <= 0 || r.TargetHours <= 0 {
			t.Errorf("row %s has non-positive hours", r.ID)
		}
		if r.VMsPerStudent < 1 {
			t.Errorf("row %s VMs = %d", r.ID, r.VMsPerStudent)
		}
		if r.Week < 1 || r.Week > 10 {
			t.Errorf("row %s week = %d", r.ID, r.Week)
		}
		if r.Reserved() != (r.Flavor.Class != cloud.ClassVM) {
			t.Errorf("row %s Reserved() inconsistent with flavor class", r.ID)
		}
		if r.Reserved() && r.SlotHours <= 0 {
			t.Errorf("reserved row %s has no slot length", r.ID)
		}
		if !r.Reserved() && r.SlotHours != 0 {
			t.Errorf("on-demand row %s has a slot length", r.ID)
		}
		if r.Reserved() && r.TargetFIPHours != r.TargetHours {
			t.Errorf("reserved row %s FIP target %v != instance target %v",
				r.ID, r.TargetFIPHours, r.TargetHours)
		}
	}
	if len(seen) != 16 {
		t.Errorf("%d rows, want 16", len(seen))
	}
}

func TestVMFIPRatioMatchesClusterSize(t *testing.T) {
	// One floating IP per deployment: FIP hours = instance hours / VMs.
	for _, r := range Rows() {
		if r.Reserved() {
			continue
		}
		want := r.TargetHours / float64(r.VMsPerStudent)
		if math.Abs(r.TargetFIPHours-want)/want > 1e-3 {
			t.Errorf("row %s FIP target %v, want %v", r.ID, r.TargetFIPHours, want)
		}
	}
}

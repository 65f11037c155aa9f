package studentsim

import (
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/stats"
	"sort"
)

// rowIDs holds the catalog's row IDs, sorted.
var rowIDs = func() []string {
	var ids []string
	for _, r := range course.Rows() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}()

// StudentCost prices one student's lab usage on a provider (edge rows
// excluded, matching the paper's Fig. 2 note). Rows add up in sorted-ID
// order, so the float sum never depends on map order.
func StudentCost(s StudentUsage, p cost.Provider) (float64, error) {
	var total float64
	priced := 0
	for _, rowID := range rowIDs {
		hours, ok := s.InstHours[rowID]
		if !ok {
			continue
		}
		priced++
		c, err := cost.LabRowCost(cost.LabUsage{
			RowID:         rowID,
			InstanceHours: hours,
			FIPHours:      s.FIPHours[rowID],
		}, p)
		if err != nil {
			return 0, err
		}
		total += c
	}
	if priced == len(s.InstHours) {
		return total, nil
	}
	// A row outside the catalog: fail on the lowest such ID, the first
	// one a walk over the student's sorted rows would price.
	lowest, found := "", false
	for rowID := range s.InstHours {
		i := sort.SearchStrings(rowIDs, rowID)
		if known := i < len(rowIDs) && rowIDs[i] == rowID; !known && (!found || rowID < lowest) {
			lowest, found = rowID, true
		}
	}
	_, err := cost.LabRowCost(cost.LabUsage{RowID: lowest}, p)
	return 0, err
}

// StudentCosts prices every student, returning the per-student vector
// behind Fig. 2.
func StudentCosts(r *Result, p cost.Provider) ([]float64, error) {
	out := make([]float64, len(r.Students))
	for i, s := range r.Students {
		c, err := StudentCost(s, p)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Fig2Stats are the distribution statistics §5 reports for Fig. 2.
type Fig2Stats struct {
	Provider     cost.Provider
	Mean         float64
	Max          float64
	Expected     float64 // cost of the §3 expected durations
	ExceedFrac   float64 // fraction of students above Expected
	Distribution stats.Summary
}

// Fig2 computes the per-student cost distribution statistics against the
// expected-usage baseline.
func Fig2(r *Result, p cost.Provider, expected float64) (Fig2Stats, error) {
	costs, err := StudentCosts(r, p)
	if err != nil {
		return Fig2Stats{}, err
	}
	sum := stats.Summarize(costs)
	return Fig2Stats{
		Provider:     p,
		Mean:         sum.Mean,
		Max:          sum.Max,
		Expected:     expected,
		ExceedFrac:   stats.FractionAbove(costs, expected),
		Distribution: sum,
	}, nil
}

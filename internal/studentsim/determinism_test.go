package studentsim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cost"
)

// Regression test for the maprange lint finding in StudentCost: per-row
// costs were accumulated in InstHours map order, and float addition is
// not associative, so a student's bill could differ in the last bits
// between runs.
func TestStudentCostIsOrderIndependent(t *testing.T) {
	rows := []string{"1", "2", "3", "4-single", "5-multi-mi100", "6-system", "7", "8"}
	hours := []float64{1e-3, 7.77, 123.456, 0.1, 0.2, 0.3, 98.76543, 1e-6}
	u := StudentUsage{InstHours: map[string]float64{}}
	for i, h := range hours {
		u.InstHours[rows[i]] = h
	}
	want, err := StudentCost(u, cost.AWS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, err := StudentCost(u, cost.AWS)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("StudentCost changed between calls: %v then %v (map-order float accumulation)", want, got)
		}
	}
}

// sortedKeyCost prices a student by sorting the student's own row IDs:
// the reference order that StudentCost's walk over the catalog must
// reproduce bit for bit, errors included.
func sortedKeyCost(s StudentUsage, p cost.Provider) (float64, error) {
	keys := make([]string, 0, len(s.InstHours))
	for rowID := range s.InstHours {
		keys = append(keys, rowID)
	}
	sort.Strings(keys)
	var total float64
	for _, rowID := range keys {
		c, err := cost.LabRowCost(cost.LabUsage{RowID: rowID, InstanceHours: s.InstHours[rowID], FIPHours: s.FIPHours[rowID]}, p)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// TestStudentCostMatchesSortedKeys prices every student of two seeds on
// both providers and compares each bill's bits with the reference, then
// checks that a row outside the catalog fails with the reference's error.
func TestStudentCostMatchesSortedKeys(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		res := simOnce(t, seed)
		for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
			for i, s := range res.Students {
				got, err := StudentCost(s, p)
				want, werr := sortedKeyCost(s, p)
				if err != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d %s student %d: StudentCost = %v, %v; reference %v, %v", seed, p, i, got, err, want, werr)
				}
			}
		}
	}
	for _, rows := range [][]string{{"1", "zz", "9", "8"}, {"", "zz", "3"}, {"4-single", "4-multi"}} {
		u := StudentUsage{InstHours: map[string]float64{}}
		for _, id := range rows {
			u.InstHours[id] = 1
		}
		_, err := StudentCost(u, cost.AWS)
		_, want := sortedKeyCost(u, cost.AWS)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("rows %q: error %v, want %v", rows, err, want)
		}
	}
}

// TestStudentCostAllocatesNothing pins that pricing a student whose rows
// are all in the catalog allocates nothing.
func TestStudentCostAllocatesNothing(t *testing.T) {
	res := simOnce(t, 1)
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := StudentCost(res.Students[0], p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("StudentCost on %s allocates %.0f objects, want 0", p, allocs)
		}
	}
}

package collective

import (
	"errors"
	"math"
	"testing"
)

func vecs(n, length int) [][]float64 {
	out := make([][]float64, n)
	for r := range out {
		out[r] = make([]float64, length)
		for i := range out[r] {
			out[r][i] = float64(r + 1)
		}
	}
	return out
}

func TestResilientNoFailuresMatchesPlainRing(t *testing.T) {
	a := vecs(4, 10)
	b := vecs(4, 10)
	if err := RingAllReduce(a); err != nil {
		t.Fatal(err)
	}
	rep, err := RingAllReduceResilient(b, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reformed || rep.Survivors != 4 || len(rep.Dead) != 0 {
		t.Fatalf("healthy run reported reformation: %+v", rep)
	}
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d elem %d: %v != %v", r, i, a[r][i], b[r][i])
			}
		}
	}
}

func TestResilientCutsDeadRankAndReforms(t *testing.T) {
	const n, length = 5, 12
	v := vecs(n, length)
	deadRank := 2
	rep, err := RingAllReduceResilient(v, func(r int) bool { return r == deadRank })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reformed || rep.Survivors != n-1 || len(rep.Dead) != 1 || rep.Dead[0] != deadRank {
		t.Fatalf("report = %+v, want reformation around rank 2", rep)
	}
	// Survivors hold the sum over survivors only: 1+2+4+5 = 12 per elem.
	want := 0.0
	for r := 0; r < n; r++ {
		if r != deadRank {
			want += float64(r + 1)
		}
	}
	for r := 0; r < n; r++ {
		for i := 0; i < length; i++ {
			if r == deadRank {
				if v[r][i] != float64(r+1) {
					t.Fatalf("dead rank's vector was touched: %v", v[r][i])
				}
			} else if v[r][i] != want {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, v[r][i], want)
			}
		}
	}
}

func TestResilientAdjacentDeadRanksAndAllDead(t *testing.T) {
	v := vecs(4, 8)
	rep, err := RingAllReduceResilient(v, func(r int) bool { return r == 1 || r == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 2 || len(rep.Dead) != 2 {
		t.Fatalf("report = %+v, want 2 survivors, 2 dead", rep)
	}
	// Survivors 0 and 3 hold 1+4 = 5.
	for _, r := range []int{0, 3} {
		if v[r][0] != 5 {
			t.Fatalf("rank %d = %v, want 5", r, v[r][0])
		}
	}
	if _, err := RingAllReduceResilient(vecs(3, 4), func(int) bool { return true }); !errors.Is(err, ErrAllRanksDead) {
		t.Fatalf("all-dead = %v, want ErrAllRanksDead", err)
	}
	// A single survivor needs no collective: its vector is the "sum".
	v2 := vecs(3, 4)
	rep, err = RingAllReduceResilient(v2, func(r int) bool { return r != 0 })
	if err != nil || rep.Survivors != 1 {
		t.Fatalf("single survivor: rep=%+v err=%v", rep, err)
	}
	if v2[0][0] != 1 {
		t.Fatalf("single survivor vector changed: %v", v2[0][0])
	}
}

func TestRingWithReformationCost(t *testing.T) {
	m := DefaultCostModel()
	const bytes = 1 << 20
	if got := m.RingWithReformation(8, 0, bytes, 0.5); got != m.Ring(8, bytes) {
		t.Fatalf("no failures must cost a plain ring: %v vs %v", got, m.Ring(8, bytes))
	}
	const timeout = 0.5
	got := m.RingWithReformation(8, 1, bytes, timeout)
	want := timeout + 7*m.Alpha + m.Ring(7, bytes)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("reformation cost = %v, want %v", got, want)
	}
	if got <= m.Ring(8, bytes) {
		t.Fatal("a failure must cost more than the healthy collective")
	}
	if got := m.RingWithReformation(4, 4, bytes, timeout); got != timeout {
		t.Fatalf("total loss costs only the timeout: %v", got)
	}
}

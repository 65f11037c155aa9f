package collective

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// makeVectors builds n worker vectors of the given length with
// deterministic pseudo-random contents, returning them plus the expected
// elementwise sum.
func makeVectors(n, length int, seed uint64) (vectors [][]float64, want []float64) {
	rng := stats.NewRNG(seed)
	vectors = make([][]float64, n)
	want = make([]float64, length)
	for r := range vectors {
		vectors[r] = make([]float64, length)
		for i := range vectors[r] {
			vectors[r][i] = rng.Uniform(-1, 1)
			want[i] += vectors[r][i]
		}
	}
	return vectors, want
}

func checkAllEqual(t *testing.T, vectors [][]float64, want []float64, algo string) {
	t.Helper()
	for r, v := range vectors {
		for i := range v {
			if math.Abs(v[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: worker %d element %d = %v, want %v", algo, r, i, v[i], want[i])
			}
		}
	}
}

func TestAllReduceAlgorithmsAgree(t *testing.T) {
	algos := map[string]func([][]float64) error{
		"ring":  RingAllReduce,
		"naive": NaiveAllReduce,
		"tree":  TreeAllReduce,
	}
	for name, fn := range algos {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			for _, length := range []int{1, 2, 7, 64, 1000} {
				vectors, want := makeVectors(n, length, uint64(n*1000+length))
				if err := fn(vectors); err != nil {
					t.Fatalf("%s n=%d len=%d: %v", name, n, length, err)
				}
				checkAllEqual(t, vectors, want, fmt.Sprintf("%s n=%d len=%d", name, n, length))
			}
		}
	}
}

func TestAllReduceShapeErrors(t *testing.T) {
	for name, fn := range map[string]func([][]float64) error{
		"ring": RingAllReduce, "naive": NaiveAllReduce, "tree": TreeAllReduce,
	} {
		if err := fn(nil); !errors.Is(err, ErrShape) {
			t.Errorf("%s(nil) err = %v", name, err)
		}
		if err := fn([][]float64{{1, 2}, {1}}); !errors.Is(err, ErrShape) {
			t.Errorf("%s(ragged) err = %v", name, err)
		}
		if err := fn([][]float64{{}}); !errors.Is(err, ErrShape) {
			t.Errorf("%s(empty) err = %v", name, err)
		}
	}
}

func TestRingAllReduceProperty(t *testing.T) {
	// Property: for random worker counts and payloads, every worker ends
	// with the elementwise sum.
	f := func(rawN uint8, rawLen uint16, seed uint64) bool {
		n := int(rawN%12) + 1
		length := int(rawLen%512) + 1
		vectors, want := makeVectors(n, length, seed)
		if err := RingAllReduce(vectors); err != nil {
			return false
		}
		for _, v := range vectors {
			for i := range v {
				if math.Abs(v[i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSingleWorkerNoOp(t *testing.T) {
	v := [][]float64{{1, 2, 3}}
	if err := RingAllReduce(v); err != nil {
		t.Fatal(err)
	}
	if v[0][0] != 1 || v[0][2] != 3 {
		t.Errorf("single-worker all-reduce mutated data: %v", v[0])
	}
}

func TestCostModelShapes(t *testing.T) {
	m := DefaultCostModel()
	// Large payloads: ring beats tree beats central (bandwidth regime).
	big := 256e6 // 256 MB of gradients
	ring, tree, central := m.Ring(8, big), m.Tree(8, big), m.Central(8, big)
	if !(ring < tree && tree < central) {
		t.Errorf("large payload ordering: ring=%v tree=%v central=%v", ring, tree, central)
	}
	// Tiny payloads: tree's fewer steps win over ring (latency regime).
	tiny := 64.0
	if m.Tree(16, tiny) >= m.Ring(16, tiny) {
		t.Errorf("tiny payload: tree=%v should beat ring=%v", m.Tree(16, tiny), m.Ring(16, tiny))
	}
	// Ring bandwidth term is ~independent of n: doubling workers shouldn't
	// double the big-payload time.
	if r16 := m.Ring(16, big); r16 > 1.3*m.Ring(8, big) {
		t.Errorf("ring not bandwidth-optimal: n=8 %v vs n=16 %v", m.Ring(8, big), r16)
	}
	// Central time grows linearly in n.
	if c16 := m.Central(16, big); c16 < 1.8*m.Central(8, big) {
		t.Errorf("central should scale ~2x from 8 to 16 workers: %v vs %v", m.Central(8, big), c16)
	}
}

func TestCostModelDegenerate(t *testing.T) {
	m := DefaultCostModel()
	if m.Ring(1, 1e6) != 0 || m.Tree(1, 1e6) != 0 || m.Central(1, 1e6) != 0 {
		t.Error("single worker should cost 0")
	}
}

func BenchmarkRingAllReduce(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, length := range []int{1 << 10, 1 << 16, 1 << 20} {
			b.Run(fmt.Sprintf("workers=%d/elems=%d", n, length), func(b *testing.B) {
				vectors, _ := makeVectors(n, length, 1)
				b.SetBytes(int64(8 * length))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := RingAllReduce(vectors); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkNaiveAllReduce(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			vectors, _ := makeVectors(n, 1<<16, 1)
			b.SetBytes(int64(8 << 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := NaiveAllReduce(vectors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTreeAllReduce(b *testing.B) {
	vectors, _ := makeVectors(8, 1<<16, 1)
	b.SetBytes(int64(8 << 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := TreeAllReduce(vectors); err != nil {
			b.Fatal(err)
		}
	}
}

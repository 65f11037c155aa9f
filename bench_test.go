// Wall-clock benchmarks of two design choices EXPERIMENTS.md names: the
// goroutine collectives and the dynamic batcher. They print times, not the
// paper's numbers; TestExperimentsDoc renders those. Run them with
//
//	go test -run '^$' -bench Ablation .
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/serve"
	"repro/internal/stats"
)

// BenchmarkAblationAllReduce compares the ring, tree, and naive
// collectives across worker counts and payloads — the Unit-4 lecture's
// bandwidth-optimality argument, measured on real goroutines.
func BenchmarkAblationAllReduce(b *testing.B) {
	algos := []struct {
		name string
		fn   func([][]float64) error
	}{
		{"ring", collective.RingAllReduce},
		{"tree", collective.TreeAllReduce},
		{"naive", collective.NaiveAllReduce},
	}
	for _, workers := range []int{4, 8, 16} {
		for _, elems := range []int{1 << 12, 1 << 18} {
			for _, algo := range algos {
				b.Run(fmt.Sprintf("%s/workers=%d/elems=%d", algo.name, workers, elems), func(b *testing.B) {
					rng := stats.NewRNG(1)
					vectors := make([][]float64, workers)
					for w := range vectors {
						vectors[w] = make([]float64, elems)
						for i := range vectors[w] {
							vectors[w][i] = rng.Float64()
						}
					}
					b.SetBytes(int64(8 * elems))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := algo.fn(vectors); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkAblationDynamicBatching measures the real batcher's throughput
// across batch limits (Unit 6): larger windows amortize execution.
func BenchmarkAblationDynamicBatching(b *testing.B) {
	exec := func(inputs [][]float64) ([][]float64, error) {
		// Emulate sublinear batch cost: fixed kernel launch + per-item.
		time.Sleep(200*time.Microsecond + 20*time.Microsecond*time.Duration(len(inputs)))
		out := make([][]float64, len(inputs))
		for i := range inputs {
			out[i] = inputs[i]
		}
		return out, nil
	}
	for _, maxBatch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(b *testing.B) {
			batcher := serve.NewBatcher(maxBatch, 500*time.Microsecond, 2, exec)
			defer batcher.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				in := []float64{1}
				for pb.Next() {
					if _, err := batcher.Submit(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

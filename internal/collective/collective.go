// Package collective implements the gradient-aggregation collectives the
// Unit-4 lecture covers in detail: bandwidth-optimal ring all-reduce
// (reduce-scatter followed by all-gather), a binary-tree reduction, and
// the naive central-parameter-server baseline. The implementations are
// real concurrent algorithms — N worker goroutines exchanging chunks over
// channels — not analytical shortcuts, so the benchmarks measure actual
// data movement and the property tests verify exact reduction semantics.
//
// An alpha–beta cost model accompanies the implementations for use by the
// training-time simulator (internal/train) and for the crossover analysis
// in the ablation benchmarks: ring moves 2(N−1)/N of the data per worker
// regardless of N, while the central baseline moves 2(N−1) of it through
// one bottleneck link.
package collective

import (
	"errors"
	"sync"
)

// ErrShape reports mismatched worker vectors.
var ErrShape = errors.New("collective: all workers must hold equal-length non-empty vectors")

func validate(vectors [][]float64) error {
	if len(vectors) == 0 || len(vectors[0]) == 0 {
		return ErrShape
	}
	n := len(vectors[0])
	for _, v := range vectors[1:] {
		if len(v) != n {
			return ErrShape
		}
	}
	return nil
}

// RingAllReduce sums the workers' vectors elementwise and leaves the full
// sum in every vector, using the bandwidth-optimal ring algorithm: N−1
// reduce-scatter steps followed by N−1 all-gather steps, each worker
// sending one 1/N-sized chunk per step to its ring successor.
func RingAllReduce(vectors [][]float64) error {
	if err := validate(vectors); err != nil {
		return err
	}
	n := len(vectors)
	if n == 1 {
		return nil
	}
	length := len(vectors[0])

	// Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]).
	bounds := make([]int, n+1)
	for c := 0; c <= n; c++ {
		bounds[c] = c * length / n
	}
	chunk := func(v []float64, c int) []float64 { return v[bounds[c]:bounds[c+1]] }

	// One channel per ring edge: worker r sends to ch[r], receives from
	// ch[(r-1+n)%n]. Buffer 1 lets every worker send before receiving.
	ch := make([]chan []float64, n)
	for i := range ch {
		ch[i] = make(chan []float64, 1)
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			defer wg.Done()
			v := vectors[rank]
			prev := (rank - 1 + n) % n
			// Phase 1: reduce-scatter. After step s, the chunk received
			// in step s holds the partial sum of s+2 workers; after n-1
			// steps, chunk (rank+1) mod n is fully reduced here.
			for s := 0; s < n-1; s++ {
				sendC := ((rank-s)%n + n) % n
				recvC := ((rank-s-1)%n + n) % n
				out := append([]float64(nil), chunk(v, sendC)...)
				ch[rank] <- out
				in := <-ch[prev]
				dst := chunk(v, recvC)
				for i, x := range in {
					dst[i] += x
				}
			}
			// Phase 2: all-gather. Circulate the fully reduced chunks.
			for s := 0; s < n-1; s++ {
				sendC := ((rank-s+1)%n + n) % n
				recvC := ((rank-s)%n + n) % n
				out := append([]float64(nil), chunk(v, sendC)...)
				ch[rank] <- out
				in := <-ch[prev]
				copy(chunk(v, recvC), in)
			}
		}(rank)
	}
	wg.Wait()
	// Each of the 2(n-1) steps circulates exactly one full vector's worth
	// of chunks across the ring.
	return nil
}

// NaiveAllReduce is the central parameter-server baseline: every worker
// ships its whole vector to rank 0, which reduces and broadcasts the
// result. The root link carries 2(N−1) full vectors — the bottleneck the
// ring algorithm removes.
//
//lint:ignore deadcode the root ablation benchmarks that EXPERIMENTS.md cites compare it with RingAllReduce
func NaiveAllReduce(vectors [][]float64) error {
	if err := validate(vectors); err != nil {
		return err
	}
	n := len(vectors)
	if n == 1 {
		return nil
	}
	in := make(chan []float64, n-1)
	var send sync.WaitGroup
	send.Add(n - 1)
	for rank := 1; rank < n; rank++ {
		go func(rank int) {
			defer send.Done()
			in <- append([]float64(nil), vectors[rank]...)
		}(rank)
	}
	send.Wait()
	close(in)
	root := vectors[0]
	for v := range in {
		for i, x := range v {
			root[i] += x
		}
	}
	var bcast sync.WaitGroup
	bcast.Add(n - 1)
	for rank := 1; rank < n; rank++ {
		go func(rank int) {
			defer bcast.Done()
			copy(vectors[rank], root)
		}(rank)
	}
	bcast.Wait()
	// n-1 full vectors in to the root, n-1 broadcast back out — the
	// bottleneck-link traffic the ring algorithm removes.
	return nil
}

// TreeAllReduce reduces up a binary tree and broadcasts back down:
// 2·log2(N) latency steps, each moving the full vector. Better latency
// than ring for small messages, worse bandwidth for large ones.
//
//lint:ignore deadcode the root ablation benchmarks that EXPERIMENTS.md cites compare it with RingAllReduce
func TreeAllReduce(vectors [][]float64) error {
	if err := validate(vectors); err != nil {
		return err
	}
	n := len(vectors)
	// Reduce up: at stride d, worker r (multiple of 2d) absorbs r+d.
	for d := 1; d < n; d *= 2 {
		var wg sync.WaitGroup
		for r := 0; r+d < n; r += 2 * d {
			wg.Add(1)
			go func(dst, src int) {
				defer wg.Done()
				a, b := vectors[dst], vectors[src]
				for i, x := range b {
					a[i] += x
				}
			}(r, r+d)
		}
		wg.Wait()
	}
	// Broadcast down, reversing the strides.
	top := 1
	for top < n {
		top *= 2
	}
	for d := top / 2; d >= 1; d /= 2 {
		var wg sync.WaitGroup
		for r := 0; r+d < n; r += 2 * d {
			wg.Add(1)
			go func(dst, src int) {
				defer wg.Done()
				copy(vectors[dst], vectors[src])
			}(r+d, r)
		}
		wg.Wait()
	}
	if n > 1 {
		// n-1 absorbs up the tree plus n-1 copies back down, each moving
		// one full vector.
	}
	return nil
}

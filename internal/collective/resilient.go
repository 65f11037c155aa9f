package collective

import (
	"errors"
	"sort"
	"sync"
)

// ErrAllRanksDead is returned when no rank survives to hold a result.
var ErrAllRanksDead = errors.New("collective: every rank is dead")

// FailedRanks reports whether a rank is currently dead; the chaos
// engine's RankDead method satisfies it.
type FailedRanks func(rank int) bool

// ReformReport describes one fault-tolerant all-reduce: which ranks were
// detected dead and how many survivors the reformed ring ran over.
type ReformReport struct {
	Dead      []int // dead ranks, ascending; empty when nothing failed
	Survivors int   // ring size after reformation
	Reformed  bool  // true when at least one rank was cut out
}

// RingAllReduceResilient is RingAllReduce hardened against dead ranks,
// the straggler-taken-to-its-limit failure of Unit 4: before the
// collective, every live rank heartbeats its ring edge and walks past
// dead predecessors (the concurrent analogue of a NCCL watchdog timeout
// firing), the ring re-forms over the survivors, and the collective runs
// on the reformed ring. Dead ranks' gradient contributions are lost —
// exactly what losing a worker mid-step means — and their vectors are
// left untouched. The alpha-beta cost of the detection timeout and the
// reformed ring lives in CostModel.RingWithReformation.
//
// dead may be nil (no failures); with no dead ranks the behavior and
// recorded traffic are identical to RingAllReduce.
func RingAllReduceResilient(vectors [][]float64, dead FailedRanks) (ReformReport, error) {
	if err := validate(vectors); err != nil {
		return ReformReport{}, err
	}
	n := len(vectors)
	if dead == nil {
		return ReformReport{Survivors: n}, RingAllReduce(vectors)
	}

	// Snapshot the failure predicate once so every rank sees one
	// consistent membership view (the chaos registry can change between
	// calls, not during one).
	isDead := make([]bool, n)
	live := 0
	for r := range isDead {
		isDead[r] = dead(r)
		if !isDead[r] {
			live++
		}
	}
	if live == 0 {
		all := make([]int, n)
		for r := range all {
			all[r] = r
		}
		return ReformReport{Dead: all, Reformed: true}, ErrAllRanksDead
	}

	// Detection round. Each live rank closes its "alive" channel as a
	// heartbeat broadcast; dead ranks close "failed" instead (standing in
	// for the timeout their silence would trigger). Every live rank then
	// walks back along the ring past dead predecessors until it reaches a
	// live one — the same walk the reformed ring's edges will take.
	aliveCh := make([]chan struct{}, n)
	failedCh := make([]chan struct{}, n)
	for i := range aliveCh {
		aliveCh[i] = make(chan struct{})
		failedCh[i] = make(chan struct{})
	}
	var mu sync.Mutex
	detected := map[int]bool{}
	var wg sync.WaitGroup
	wg.Add(n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			defer wg.Done()
			if isDead[rank] {
				close(failedCh[rank])
				return
			}
			close(aliveCh[rank])
			for p := (rank - 1 + n) % n; p != rank; p = (p - 1 + n) % n {
				select {
				case <-aliveCh[p]:
					return // found the live predecessor; edge established
				case <-failedCh[p]:
					mu.Lock()
					detected[p] = true
					mu.Unlock()
				}
			}
		}(rank)
	}
	wg.Wait()

	deadList := make([]int, 0, len(detected))
	for r := range detected {
		deadList = append(deadList, r)
	}
	sort.Ints(deadList)
	if len(deadList) == 0 {
		return ReformReport{Survivors: n}, RingAllReduce(vectors)
	}
	survivors := make([][]float64, 0, n-len(deadList))
	for r := 0; r < n; r++ {
		if !detected[r] {
			survivors = append(survivors, vectors[r])
		}
	}
	rep := ReformReport{Dead: deadList, Survivors: len(survivors), Reformed: true}
	if len(survivors) == 0 {
		return rep, ErrAllRanksDead
	}
	// The reformation itself is a control round over the survivors'
	// edges; it moves no payload but is accounted so chaos experiments
	// see the extra collective op.
	if len(survivors) == 1 {
		return rep, nil
	}
	return rep, RingAllReduce(survivors)
}

package collective

import "math"

// CostModel is the classic alpha–beta (latency–bandwidth) communication
// model: sending an m-byte message costs Alpha + m·Beta seconds. The
// defaults approximate a 100 Gb/s datacenter fabric with ~10 µs launch
// latency, the class of interconnect behind the course's multi-GPU nodes.
type CostModel struct {
	Alpha float64 // seconds per message
	Beta  float64 // seconds per byte
}

// DefaultCostModel returns the 100 Gb/s / 10 µs model used for
// cross-node communication by the training simulator.
func DefaultCostModel() CostModel {
	return CostModel{Alpha: 10e-6, Beta: 8.0 / 100e9}
}

// NVLinkCostModel returns an intra-node GPU interconnect model (~300 GB/s
// effective per direction, ~3 µs launch), the regime of the course's
// multi-GPU bare-metal nodes.
func NVLinkCostModel() CostModel {
	return CostModel{Alpha: 3e-6, Beta: 1.0 / 300e9}
}

// Ring returns the predicted seconds for ring all-reduce of bytes across
// n workers: 2(n−1) steps, each moving bytes/n per worker.
// T = 2(n−1)·α + 2·(n−1)/n·bytes·β — bandwidth-optimal, latency-heavy.
func (m CostModel) Ring(n int, bytes float64) float64 {
	if n <= 1 {
		return 0
	}
	fn := float64(n)
	return 2*(fn-1)*m.Alpha + 2*(fn-1)/fn*bytes*m.Beta
}

// Tree returns the predicted seconds for a binary-tree all-reduce:
// 2·ceil(log2 n) steps each moving the full payload.
func (m CostModel) Tree(n int, bytes float64) float64 {
	if n <= 1 {
		return 0
	}
	steps := 2 * math.Ceil(math.Log2(float64(n)))
	return steps * (m.Alpha + bytes*m.Beta)
}

// Central returns the predicted seconds for the parameter-server
// baseline: the root link serializes (n−1) receives plus (n−1) sends of
// the full payload.
func (m CostModel) Central(n int, bytes float64) float64 {
	if n <= 1 {
		return 0
	}
	fn := float64(n)
	return 2 * (fn - 1) * (m.Alpha + bytes*m.Beta)
}

// RingWithReformation returns the predicted seconds for a ring
// all-reduce that loses failed ranks mid-collective: the survivors burn
// detectTimeout seconds waiting out the dead ranks' silence, exchange
// one membership control round (alpha per surviving edge), and rerun the
// collective over the reformed n−failed ring. This is the cost the chaos
// experiments charge a KindRankFail fault.
func (m CostModel) RingWithReformation(n, failed int, bytes, detectTimeout float64) float64 {
	if failed <= 0 {
		return m.Ring(n, bytes)
	}
	survivors := n - failed
	if survivors <= 0 {
		return detectTimeout
	}
	reform := float64(survivors) * m.Alpha
	return detectTimeout + reform + m.Ring(survivors, bytes)
}

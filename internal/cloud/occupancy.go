package cloud

import "math"

// Occupancy is a mergeable hour-resolution concurrency curve: integer
// resource deltas per simulated hour bucket. The sharded simulation core
// uses one per shard — a resource running [start, end) contributes to
// every hour bucket it overlaps — and merges them in shard order to
// recover the population-wide peak without materializing per-instance
// records. All state is integral, so merged curves are identical for
// every shard partitioning and merge order.
type Occupancy struct {
	horizon int
	// Delta arrays, len horizon+1: +n at the first overlapped bucket,
	// -n one past the last.
	instances, cores, ramGB, fips []int64
}

// NewOccupancy returns an empty curve covering [0, horizonHours).
func NewOccupancy(horizonHours int) *Occupancy {
	if horizonHours < 1 {
		horizonHours = 1
	}
	return &Occupancy{
		horizon:   horizonHours,
		instances: make([]int64, horizonHours+1),
		cores:     make([]int64, horizonHours+1),
		ramGB:     make([]int64, horizonHours+1),
		fips:      make([]int64, horizonHours+1),
	}
}

// bucketSpan converts a [start, end) window in hours to the delta
// indexes [lo, hi): the window counts toward every hour bucket it
// overlaps, clamped to the horizon.
func (o *Occupancy) bucketSpan(start, end float64) (int, int) {
	if end <= start {
		return 0, 0
	}
	lo := int(math.Floor(start))
	hi := int(math.Ceil(end))
	if lo < 0 {
		lo = 0
	}
	if hi > o.horizon {
		hi = o.horizon
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

// AddInstances records count instances of flavor f running [start, end).
func (o *Occupancy) AddInstances(start, end float64, f Flavor, count int) {
	lo, hi := o.bucketSpan(start, end)
	if lo == hi {
		return
	}
	n := int64(count)
	o.instances[lo] += n
	o.instances[hi] -= n
	o.cores[lo] += n * int64(f.VCPUs)
	o.cores[hi] -= n * int64(f.VCPUs)
	o.ramGB[lo] += n * int64(f.RAMGB)
	o.ramGB[hi] -= n * int64(f.RAMGB)
}

// AddFloatingIPs records count floating IPs held [start, end).
func (o *Occupancy) AddFloatingIPs(start, end float64, count int) {
	lo, hi := o.bucketSpan(start, end)
	if lo == hi {
		return
	}
	o.fips[lo] += int64(count)
	o.fips[hi] -= int64(count)
}

// Merge folds another curve in. It panics on horizon mismatch: shards of
// one run always share a horizon, so a mismatch is a wiring bug.
func (o *Occupancy) Merge(b *Occupancy) {
	if b == nil {
		return
	}
	if b.horizon != o.horizon {
		panic("cloud: Occupancy.Merge with mismatched horizon")
	}
	for i := range o.instances {
		o.instances[i] += b.instances[i]
		o.cores[i] += b.cores[i]
		o.ramGB[i] += b.ramGB[i]
		o.fips[i] += b.fips[i]
	}
}

// OccupancyPeak is the per-dimension maximum of a curve, with the first
// hour at which the instance peak occurs.
type OccupancyPeak struct {
	Instances   int64
	Cores       int64
	RAMGB       int64
	FloatingIPs int64
	PeakHour    int
}

// Peak scans the curve's prefix sums and returns each dimension's
// maximum simultaneous occupancy (hour resolution: a resource counts in
// every hour bucket it overlaps, so this upper-bounds the instantaneous
// peak).
func (o *Occupancy) Peak() OccupancyPeak {
	var p OccupancyPeak
	var inst, cores, ram, fips int64
	for h := 0; h < o.horizon; h++ {
		inst += o.instances[h]
		cores += o.cores[h]
		ram += o.ramGB[h]
		fips += o.fips[h]
		if inst > p.Instances {
			p.Instances = inst
			p.PeakHour = h
		}
		if cores > p.Cores {
			p.Cores = cores
		}
		if ram > p.RAMGB {
			p.RAMGB = ram
		}
		if fips > p.FloatingIPs {
			p.FloatingIPs = fips
		}
	}
	return p
}

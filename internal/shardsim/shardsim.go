// Package shardsim is the sharded, parallel simulation core for
// million-student runs of the course usage model.
//
// A run is partitioned into fixed-size student shards, which a worker
// pool executes concurrently. Each worker folds every shard it runs into
// one private set of streaming aggregates (stats.Acc, stats.Hist,
// cloud.Occupancy; ≈86 KB) — never per-instance records — so memory is
// one aggregate per worker, whatever the population or the shard size.
// Every session's [start, end) is known when it is drawn and the folds
// are order-free, so sessions go straight into the aggregates with no
// event queue. When the workers are done, their aggregates merge into
// the report.
//
// # Determinism (DESIGN.md §11)
//
// The same Config.Seed produces byte-identical reports for every worker
// count, GOMAXPROCS, and ShardSize. Three invariants carry that:
//
//  1. RNG derivation never flows through execution boundaries. Student g
//     draws from seed → block(g>>12) → student(g) → stream; the 4096-
//     student derivation block is a constant, not the shard size.
//  2. Every student is a pure function of (seed, g): the analytic model
//     (model.go) has no cross-student coupling for a shard boundary to
//     cut.
//  3. Aggregates are integral. Sums accumulate in 1e-6 fixed point and
//     counts/occupancy deltas are int64, so folding and merging are
//     associative and commutative; min/max are order-free already.
//     Which worker folded which shard never reaches the report.
package shardsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/course"
	"repro/internal/stats"
	"repro/internal/studentsim"
)

// Config parameterizes a sharded run. Zero fields take defaults.
type Config struct {
	// Students is the population size (default course.Enrollment).
	Students int
	// Seed feeds the root RNG (default 1).
	Seed uint64
	// ShardSize is students per shard (default 4096). It changes how
	// work is chunked, never what is computed. Negative is an error.
	ShardSize int
	// Workers caps concurrent shard executions (default GOMAXPROCS).
	// Negative is an error.
	Workers int
	// SemesterWeeks bounds instance lifetimes (default 15). It must
	// reach the catalog's last lab week.
	SemesterWeeks int
	// Behavior overrides the calibrated behavior constants; nil uses
	// the paper defaults.
	Behavior *studentsim.Behavior
}

func (c Config) withDefaults() Config {
	if c.Students == 0 {
		c.Students = course.Enrollment
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ShardSize == 0 {
		c.ShardSize = 4096
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SemesterWeeks == 0 {
		c.SemesterWeeks = 15
	}
	return c
}

// RowTotals is the merged per-row usage, in micro-hours.
type RowTotals struct {
	Row course.Row
	// Instances aggregates per-session instance-hours (Sum = the row's
	// Table-1 total); FIPs aggregates floating-IP hours.
	Instances stats.Acc
	FIPs      stats.Acc
	// ClippedMicroHours is overhang mass (micro instance-hours) that the
	// per-deployment cap or semester teardown made unplaceable — the
	// explicit remainder of the "row total survives" invariant.
	ClippedMicroHours int64
}

// CostTotals is the merged per-student cost distribution for one
// provider.
type CostTotals struct {
	// PerStudent aggregates each student's semester lab bill.
	PerStudent stats.Acc
	// Exceed counts students whose bill is strictly above Expected (the
	// paper's expected-usage cost).
	Exceed   int64
	Expected float64
	// Hist buckets the bills geometrically for quantile readout.
	Hist *stats.Hist
}

// ExceedFrac returns the fraction of students above Expected.
func (c CostTotals) ExceedFrac() float64 {
	if c.PerStudent.N == 0 {
		return 0
	}
	return float64(c.Exceed) / float64(c.PerStudent.N)
}

// Report is the merged result of a sharded run. Every field is a
// deterministic function of (Students, Seed, SemesterWeeks, Behavior);
// ShardSize and Workers are echoed for provenance but never influence
// the numbers.
type Report struct {
	Students      int
	Seed          uint64
	SemesterWeeks int
	ShardSize     int
	Shards        int
	Workers       int

	// Rows is in course.Rows() catalog order.
	Rows []RowTotals
	AWS  CostTotals
	GCP  CostTotals
	// Occupancy is the population-wide concurrency curve.
	Occupancy *cloud.Occupancy
	// Events counts session launch and delete events, two per session.
	Events int64
}

// costHist returns the per-student bill histogram shape: buckets
// [1, sqrt(2)) ... covering $1 to ~$16M.
func costHist() *stats.Hist { return stats.NewHist(1, math.Sqrt2, 48) }

// workerAgg holds one worker's aggregates; every shard it runs folds in.
type workerAgg struct {
	rows   []RowTotals
	aws    CostTotals
	gcp    CostTotals
	occ    *cloud.Occupancy
	events int64
}

func newWorkerAgg(c *calibration) *workerAgg {
	a := &workerAgg{
		rows: make([]RowTotals, len(c.rows)),
		aws:  CostTotals{Expected: c.expectedAWS, Hist: costHist()},
		gcp:  CostTotals{Expected: c.expectedGCP, Hist: costHist()},
		occ:  cloud.NewOccupancy(int(math.Ceil(c.teardown))),
	}
	for i := range a.rows {
		a.rows[i].Row = c.rows[i].row
	}
	return a
}

// Run executes a sharded simulation.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Students < 0 {
		return nil, fmt.Errorf("shardsim: negative Students %d", cfg.Students)
	}
	if cfg.ShardSize < 0 {
		return nil, fmt.Errorf("shardsim: negative ShardSize %d", cfg.ShardSize)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("shardsim: negative Workers %d", cfg.Workers)
	}
	calib, err := newCalibration(cfg)
	if err != nil {
		return nil, err
	}

	shards := (cfg.Students + cfg.ShardSize - 1) / cfg.ShardSize
	workers := min(cfg.Workers, shards)
	aggs := make([]*workerAgg, workers)

	// Workers pull shard indexes from an atomic counter and fold every
	// shard they run into their own aggregate. Which worker ran which
	// shard is racy, but the aggregates are integral, so the merge below
	// gives the same bytes for any split of the shards.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range aggs {
		agg := newWorkerAgg(calib)
		aggs[w] = agg
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= shards {
					return
				}
				runShard(calib, cfg, s, agg)
			}
		}()
	}
	wg.Wait()

	// The report takes over the first worker's aggregate instead of
	// allocating its own.
	first := aggs[0]
	rep := &Report{
		Students:      cfg.Students,
		Seed:          cfg.Seed,
		SemesterWeeks: cfg.SemesterWeeks,
		ShardSize:     cfg.ShardSize,
		Shards:        shards,
		Workers:       cfg.Workers,
		Rows:          first.rows,
		AWS:           first.aws,
		GCP:           first.gcp,
		Occupancy:     first.occ,
		Events:        first.events,
	}
	for _, a := range aggs[1:] {
		rep.mergeWorker(a)
	}
	return rep, nil
}

// mergeWorker folds one worker's aggregates into the report. Everything
// merged here is integer micro-units or counters (DESIGN §11): the
// floatmerge lint check walks this function's call tree to prove no
// float arithmetic can reach the merge, which is what keeps the final
// report independent of shard geometry and worker interleaving.
func (rep *Report) mergeWorker(p *workerAgg) {
	for i := range rep.Rows {
		rep.Rows[i].Instances.Merge(p.rows[i].Instances)
		rep.Rows[i].FIPs.Merge(p.rows[i].FIPs)
		rep.Rows[i].ClippedMicroHours += p.rows[i].ClippedMicroHours
	}
	rep.AWS.PerStudent.Merge(p.aws.PerStudent)
	rep.AWS.Exceed += p.aws.Exceed
	rep.AWS.Hist.Merge(p.aws.Hist)
	rep.GCP.PerStudent.Merge(p.gcp.PerStudent)
	rep.GCP.Exceed += p.gcp.Exceed
	rep.GCP.Hist.Merge(p.gcp.Hist)
	rep.Occupancy.Merge(p.occ)
	rep.Events += p.events
}

// runShard simulates students [shard*ShardSize, ...) into the running
// worker's aggregates.
func runShard(c *calibration, cfg Config, shard int, agg *workerAgg) {
	root := stats.NewRNG(cfg.Seed)

	lo := shard * cfg.ShardSize
	hi := lo + cfg.ShardSize
	if hi > cfg.Students {
		hi = cfg.Students
	}
	for g := lo; g < hi; g++ {
		// Fixed derivation blocks: the path to a student's generator
		// depends only on g, never on the shard geometry.
		block := root.Split(1 + uint64(g)>>blockShift)
		stu := block.Split(uint64(g))
		simulateStudent(c, stu, agg)
	}
}

// addSession folds one resource-holding window [start, end) of a row
// into the worker's aggregates and counts its launch and delete events.
func addSession(c *calibration, agg *workerAgg, ri int, start, end float64) {
	rc := &c.rows[ri]
	vms := rc.row.VMsPerStudent
	agg.occ.AddInstances(start, end, rc.row.Flavor, vms)
	agg.occ.AddFloatingIPs(start, end, 1)
	agg.rows[ri].Instances.Add((end - start) * float64(vms))
	agg.rows[ri].FIPs.Add(end - start)
	agg.events += 2
}

// sessionCost prices one session on both providers.
func sessionCost(rc *rowCalib, dur float64) (aws, gcp float64) {
	ih := dur * float64(rc.row.VMsPerStudent)
	fip := dur * rc.fipRate
	return ih*rc.awsRate + fip, ih*rc.gcpRate + fip
}

// simulateStudent generates one student's semester: every on-demand VM
// row plus one reserved pick per lease-backed assignment. Sessions and
// the student's bill fold into the worker's aggregates as they are drawn.
func simulateStudent(c *calibration, stu *stats.RNG, agg *workerAgg) {
	var costAWS, costGCP float64

	// Shared negligence factor: the Fig. 2 long tail.
	neg := stu.Split(lblNegligence).LogNormalMean(1, c.behavior.NegligenceSigma)

	for _, ri := range c.vmRows {
		rc := &c.rows[ri]
		rng := stu.Split(lblRowBase + uint64(ri))
		prompt := rng.Bool(c.behavior.PromptDeleteFrac)
		effort := rng.Triangular(c.cal.EffortLo, c.cal.EffortMode, c.cal.EffortHi)
		noise := rng.LogNormalMean(1, c.cal.RowNoiseSigma)
		start := rc.weekHour + rng.Uniform(2, 120)

		working := effort * rc.row.ExpectedHours
		overhang := 0.0
		if !prompt {
			switch {
			case rc.capAll:
				overhang = c.cal.MaxOverhangHours
				agg.rows[ri].ClippedMicroHours +=
					stats.Micro(rc.clippedPerNP * float64(rc.row.VMsPerStudent))
			case rc.overhangMult > 0:
				overhang = rc.overhangMult * neg * noise
				if overhang > c.cal.MaxOverhangHours {
					overhang = c.cal.MaxOverhangHours
				}
			}
		}
		end := start + working + overhang
		if end > c.teardown {
			// Semester teardown truncates the session; keep the row-total
			// invariant explicit by booking the cut as clipped mass.
			agg.rows[ri].ClippedMicroHours +=
				stats.Micro((end - c.teardown) * float64(rc.row.VMsPerStudent))
			end = c.teardown
		}
		addSession(c, agg, ri, start, end)
		a, g := sessionCost(rc, end-start)
		costAWS += a
		costGCP += g
	}

	for ai := range c.assignments {
		asg := &c.assignments[ai]
		rng := stu.Split(lblAssignBase + uint64(ai))
		// Pick one hardware alternative by catalog share.
		u := rng.Float64() * asg.cumShare[len(asg.cumShare)-1]
		ri := asg.rows[len(asg.rows)-1]
		for k, cum := range asg.cumShare {
			if u < cum {
				ri = asg.rows[k]
				break
			}
		}
		rc := &c.rows[ri]
		if !rng.Bool(rc.attendFrac) {
			continue
		}
		slots := rc.slotBase
		if rng.Bool(rc.slotFrac) {
			slots++
		}
		start := rc.weekHour + rng.Uniform(2, 120)
		for k := 0; k < slots; k++ {
			end := start + rc.row.SlotHours
			addSession(c, agg, ri, start, end)
			a, g := sessionCost(rc, rc.row.SlotHours)
			costAWS += a
			costGCP += g
			start = end + rng.Uniform(2, 20)
		}
	}

	agg.aws.PerStudent.Add(costAWS)
	agg.aws.Hist.Add(costAWS)
	if costAWS > agg.aws.Expected {
		agg.aws.Exceed++
	}
	agg.gcp.PerStudent.Add(costGCP)
	agg.gcp.Hist.Add(costGCP)
	if costGCP > agg.gcp.Expected {
		agg.gcp.Exceed++
	}
}

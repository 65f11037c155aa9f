package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/telemetry"
)

// SpotPoolBill is one pool's line in the spot bill: metered hours priced
// through the pool's seeded price series, next to what the same hours
// would have cost on demand. Cents are integers rounded once per meter
// record, so pool lines sum to the bill total exactly.
type SpotPoolBill struct {
	Pool          string  `json:"pool"`
	Hours         float64 `json:"hours"`
	SpotCents     int64   `json:"spot_cents"`
	OnDemandCents int64   `json:"on_demand_cents"`
}

// SpotBill prices every spot-tagged meter record.
type SpotBill struct {
	Pools         []SpotPoolBill `json:"pools"`
	SpotHours     float64        `json:"spot_hours"`
	SpotCents     int64          `json:"spot_cents"`
	OnDemandCents int64          `json:"on_demand_cents"`
	SavingsCents  int64          `json:"savings_cents"`
}

// GatherSpotBill prices the spot-tagged instance records in recs using
// the per-pool price series (series returns a pool's series, ok=false
// for unknown pools, which are skipped). Each record is integrated over
// its own interval and rounded to cents exactly once, so the per-pool
// subtotals and the grand total reconcile to the cent by construction —
// the scorecard's total IS the sum of its parts, not a second estimate.
func GatherSpotBill(recs []cloud.UsageRecord, now float64, series func(pool string) (cost.SpotPriceSeries, bool)) SpotBill {
	perPool := map[string]*SpotPoolBill{}
	for _, r := range recs {
		if r.Kind != cloud.UsageInstance || r.Tags.Get("pricing") != "spot" {
			continue
		}
		pool := r.Tags.Get("pool")
		s, ok := series(pool)
		if !ok {
			continue
		}
		end := r.End
		if end < 0 {
			end = now
		}
		b := perPool[pool]
		if b == nil {
			b = &SpotPoolBill{Pool: pool}
			perPool[pool] = b
		}
		b.Hours += r.Hours(now)
		b.SpotCents += s.Cents(r.Start, end)
		b.OnDemandCents += s.OnDemandCents(r.Start, end)
	}
	names := make([]string, 0, len(perPool))
	for n := range perPool {
		names = append(names, n)
	}
	sort.Strings(names)
	var bill SpotBill
	for _, n := range names {
		b := *perPool[n]
		bill.Pools = append(bill.Pools, b)
		bill.SpotHours += b.Hours
		bill.SpotCents += b.SpotCents
		bill.OnDemandCents += b.OnDemandCents
	}
	bill.SavingsCents = bill.OnDemandCents - bill.SpotCents
	return bill
}

// SpotStats is the spot-survival scorecard: the market's preemption
// ledger, the training controller's kept/lost work accounting, and the
// bill. Every number is read off the telemetry bus or the usage meter,
// so a gap between "notices issued" and "vacated in time" is a real gap
// in the migration machinery, not a bookkeeping artifact.
type SpotStats struct {
	Jobs     int64 `json:"jobs"`
	JobsDone int64 `json:"jobs_done"`

	StepsKept     int64   `json:"steps_kept"`
	StepsLost     int64   `json:"steps_lost"`
	LostStepHours float64 `json:"lost_step_hours"`

	Preemptions int64 `json:"preemptions"` // notices issued by the market
	Reclaims    int64 `json:"reclaims"`    // instances the market had to kill
	Vacated     int64 `json:"vacated"`     // instances gone before the deadline

	Migrations  int64 `json:"migrations"`
	Checkpoints int64 `json:"checkpoints"`
	Retries     int64 `json:"retries"`

	MTTRCount   int64   `json:"mttr_count"`
	MeanMTTRHrs float64 `json:"mean_mttr_hours"`

	Bill SpotBill `json:"bill"`
}

// GatherSpot reads the spot scorecard from a telemetry bus and prices
// the given usage records. Missing metrics read as zero, so the
// function is safe on a spot-disabled run.
func GatherSpot(bus *telemetry.Bus, recs []cloud.UsageRecord, now float64, series func(pool string) (cost.SpotPriceSeries, bool)) SpotStats {
	s := SpotStats{Bill: GatherSpotBill(recs, now, series)}
	if bus == nil {
		return s
	}
	snap := bus.Snapshot()
	counter := func(name string) int64 {
		m, _ := telemetry.Find(snap, name)
		return int64(m.Value)
	}
	s.Jobs = counter("orchestrator.train_jobs")
	s.JobsDone = counter("orchestrator.train_jobs_done")
	s.StepsKept = counter(telemetry.Labeled("orchestrator.train_steps",
		telemetry.String("outcome", "kept")))
	s.StepsLost = counter(telemetry.Labeled("orchestrator.train_steps",
		telemetry.String("outcome", "lost")))
	if m, ok := telemetry.Find(snap, "orchestrator.train_lost_step_hours"); ok {
		s.LostStepHours = m.Value
	}
	s.Preemptions = counter("cloud.spot_preemptions")
	s.Reclaims = counter("cloud.spot_reclaims")
	s.Vacated = counter("cloud.spot_vacated")
	s.Migrations = counter("orchestrator.train_migrations")
	s.Checkpoints = counter("orchestrator.train_checkpoints")
	s.Retries = counter("orchestrator.spot_relaunch_retries")
	if m, ok := telemetry.Find(snap, "orchestrator.spot_mttr_hours"); ok && m.Count > 0 {
		s.MTTRCount = m.Count
		s.MeanMTTRHrs = m.Sum / float64(m.Count)
	}
	return s
}

// Spot renders the scorecard. Deterministic: same seed, same bytes.
func Spot(s SpotStats) string {
	var b strings.Builder
	b.WriteString("== Spot ==\n")
	fmt.Fprintf(&b, "training jobs:      %d submitted, %d completed, %d lost\n",
		s.Jobs, s.JobsDone, s.Jobs-s.JobsDone)
	fmt.Fprintf(&b, "steps:              %d kept, %d lost (%.4f step-hours destroyed)\n",
		s.StepsKept, s.StepsLost, s.LostStepHours)
	fmt.Fprintf(&b, "preemptions:        %d notices — %d vacated in time, %d reclaimed running\n",
		s.Preemptions, s.Vacated, s.Reclaims)
	fmt.Fprintf(&b, "migrations:         %d  checkpoints %d  relaunch retries %d\n",
		s.Migrations, s.Checkpoints, s.Retries)
	if s.MTTRCount > 0 {
		fmt.Fprintf(&b, "mean MTTR:          %.4f h over %d recoveries\n", s.MeanMTTRHrs, s.MTTRCount)
	} else {
		b.WriteString("mean MTTR:          n/a (no recoveries measured)\n")
	}
	for _, p := range s.Bill.Pools {
		fmt.Fprintf(&b, "pool %-14s %8.2f h  spot %s  (on-demand %s)\n",
			p.Pool+":", p.Hours, cost.FormatCents(p.SpotCents), cost.FormatCents(p.OnDemandCents))
	}
	pct := 0.0
	if s.Bill.OnDemandCents != 0 {
		pct = 100 * float64(s.Bill.SavingsCents) / float64(s.Bill.OnDemandCents)
	}
	fmt.Fprintf(&b, "spot bill:          %s  on-demand equivalent %s  savings %s (%.1f%%)\n",
		cost.FormatCents(s.Bill.SpotCents), cost.FormatCents(s.Bill.OnDemandCents),
		cost.FormatCents(s.Bill.SavingsCents), pct)
	return b.String()
}

package report

import (
	"fmt"
	"strings"

	"repro/internal/shardsim"
	"repro/internal/stats"
)

// Sharded renders a shardsim.Report as text. The output is a pure
// function of the run's (Students, Seed, SemesterWeeks, Behavior): all
// numbers are formatted from integer micro-unit state via
// stats.FormatMicro, and nothing geometry- or timing-dependent
// (ShardSize, Workers, wall-clock) is printed, so the bytes are
// identical for every shard size, worker count, and GOMAXPROCS — the
// property the scenario test pins with one golden for two geometries.
func Sharded(rep *shardsim.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded lab simulation: %d students, seed %d, %d weeks, %d events\n\n",
		rep.Students, rep.Seed, rep.SemesterWeeks, rep.Events)

	rows := [][]string{{"Assignment", "Instance Type", "Instance Hours", "Floating IP Hours", "Clipped Hours"}}
	var totInst, totFIP, totClip int64
	for i := range rep.Rows {
		r := &rep.Rows[i]
		totInst += r.Instances.SumMicro
		totFIP += r.FIPs.SumMicro
		totClip += r.ClippedMicroHours
		rows = append(rows, []string{
			r.Row.Assignment,
			r.Row.Flavor.Name,
			stats.FormatMicro(r.Instances.SumMicro, 0),
			stats.FormatMicro(r.FIPs.SumMicro, 0),
			stats.FormatMicro(r.ClippedMicroHours, 0),
		})
	}
	rows = append(rows, []string{"Total", "",
		stats.FormatMicro(totInst, 0), stats.FormatMicro(totFIP, 0), stats.FormatMicro(totClip, 0)})
	b.WriteString(Table(rows))

	b.WriteString("\nPer-student semester cost:\n")
	cost := [][]string{{"Provider", "Mean", "Median", "P90", "Max", "Expected", "Exceeding"}}
	for _, pc := range []struct {
		name string
		c    shardsim.CostTotals
	}{{"AWS", rep.AWS}, {"GCP", rep.GCP}} {
		n := pc.c.PerStudent.N
		meanMicro := int64(0)
		if n > 0 {
			meanMicro = pc.c.PerStudent.SumMicro / n
		}
		cost = append(cost, []string{
			pc.name,
			"$" + stats.FormatMicro(meanMicro, 0),
			"$" + stats.FormatMicro(stats.Micro(pc.c.Hist.Quantile(0.5)), 0),
			"$" + stats.FormatMicro(stats.Micro(pc.c.Hist.Quantile(0.9)), 0),
			"$" + stats.FormatMicro(stats.Micro(pc.c.PerStudent.MaxV), 0),
			"$" + stats.FormatMicro(stats.Micro(pc.c.Expected), 2),
			stats.FormatMicro(stats.Micro(pc.c.ExceedFrac()*100), 1) + "%",
		})
	}
	b.WriteString(Table(cost))

	p := rep.Occupancy.Peak()
	fmt.Fprintf(&b, "\nPeak occupancy: %d instances (%d cores, %d GB RAM), %d floating IPs, hour %d\n",
		p.Instances, p.Cores, p.RAMGB, p.FloatingIPs, p.PeakHour)
	return b.String()
}

package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/trace"
)

// TraceCostRow is one trace's share of the instance-hour bill.
type TraceCostRow struct {
	TraceID string // 16-hex trace ID, or "(untraced)"
	Name    string // trace name when the tracer still holds it
	Hours   float64
	Dollars float64
	Records int
}

// CostByTrace decomposes usage records into the traces that incurred
// them, joining each record's trace tag (stamped by traced cloud
// launches) against the given per-record hourly rate. Records without a
// trace tag land in a single "(untraced)" row, so summing the rows
// always reconciles exactly with the aggregate bill — the partition is
// total. tr may be nil (rows then carry IDs only, no names). Rows are
// sorted by dollars descending (the paper's heavy tail reads top-down),
// then by ID for determinism.
func CostByTrace(recs []cloud.UsageRecord, now float64, rate func(cloud.UsageRecord) float64, tr *trace.Tracer) []TraceCostRow {
	byID := map[string]*TraceCostRow{}
	for _, r := range recs {
		id := r.Tags.Get(trace.Tag)
		if id == "" {
			id = "(untraced)"
		}
		row, ok := byID[id]
		if !ok {
			row = &TraceCostRow{TraceID: id}
			if raw, err := strconv.ParseUint(id, 16, 64); err == nil {
				if td, found := tr.TraceByID(trace.ID(raw)); found {
					row.Name = td.Name
				}
			}
			byID[id] = row
		}
		h := r.Hours(now)
		row.Hours += h
		row.Dollars += h * rate(r)
		row.Records++
	}
	rows := make([]TraceCostRow, 0, len(byID))
	for _, row := range byID {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Dollars != rows[j].Dollars {
			return rows[i].Dollars > rows[j].Dollars
		}
		return rows[i].TraceID < rows[j].TraceID
	})
	return rows
}

// TraceRate returns the per-record hourly rate used by the trace cost
// attribution: floating IPs at the flat public-IPv4 price, instances at
// their flavor's cheapest commercial equivalent (internal/cost project
// classes). Flavors with no commercial match (edge devices) price at
// zero, matching the paper's exclusion of Raspberry Pi rows.
func TraceRate(p cost.Provider) func(cloud.UsageRecord) float64 {
	return func(r cloud.UsageRecord) float64 {
		if r.Kind == cloud.UsageFloatingIP {
			return cost.FloatingIPRate
		}
		class := flavorClass(r.Resource)
		if class == "" {
			return 0
		}
		e, err := cost.ProjectEquivalent(class)
		if err != nil {
			return 0
		}
		return e.Rate(p).PerHour * r.Quantity
	}
}

// flavorClass buckets Chameleon flavor names into cost project classes
// ("" = no commercial equivalent).
func flavorClass(flavor string) string {
	switch flavor {
	case "m1.small", "m1.medium", "m1.large", "m1.xlarge":
		return flavor
	case "gpu_a100_pcie":
		return "gpu-a100"
	case "gpu_v100", "gpu_mi100", "gpu_p100", "compute_gigaio", "compute_liqid":
		return "gpu-medium"
	case "compute_liqid_2":
		return "gpu-multi"
	case "raspberrypi5":
		return ""
	default:
		return "baremetal"
	}
}

// TraceCostTable renders CostByTrace rows as an aligned table with a
// reconciliation total line.
func TraceCostTable(rows []TraceCostRow) string {
	table := [][]string{{"trace", "name", "records", "hours", "dollars"}}
	var hours, dollars float64
	records := 0
	for _, r := range rows {
		table = append(table, []string{r.TraceID, r.Name,
			fmt.Sprintf("%d", r.Records),
			fmt.Sprintf("%.2f", r.Hours),
			fmt.Sprintf("%.2f", r.Dollars)})
		hours += r.Hours
		dollars += r.Dollars
		records += r.Records
	}
	table = append(table, []string{"total", "",
		fmt.Sprintf("%d", records),
		fmt.Sprintf("%.2f", hours),
		fmt.Sprintf("%.2f", dollars)})
	return Table(table)
}

// TraceSummary renders the tracer's view of a run: traces sorted by
// duration descending — the per-trace analogue of the paper's
// heavy-tailed per-student cost distribution — capped at max rows
// (0 = all), followed by the longest trace's critical path.
func TraceSummary(t *trace.Tracer, max int) string {
	traces := t.Traces()
	if len(traces) == 0 {
		return "tracing: no traces recorded\n"
	}
	sort.SliceStable(traces, func(i, j int) bool {
		return traces[i].Duration() > traces[j].Duration()
	})
	var b strings.Builder
	b.WriteString("== Traces ==\n")
	rows := [][]string{{"trace", "name", "spans", "start", "duration_h"}}
	for i, td := range traces {
		if max > 0 && i >= max {
			fmt.Fprintf(&b, "(%d more traces)\n", len(traces)-max)
			break
		}
		rows = append(rows, []string{td.ID.String(), td.Name,
			fmt.Sprintf("%d", len(td.Spans)),
			fmt.Sprintf("%.2f", td.Start()),
			fmt.Sprintf("%.3f", td.Duration())})
	}
	b.WriteString(Table(rows))
	b.WriteString("\n")
	b.WriteString(trace.RenderCriticalPath(traces[0]))
	return b.String()
}

package report

import (
	"fmt"
	"strings"

	"repro/internal/flightrec"
	"repro/internal/logging"
	"repro/internal/trace"
)

// Incident renders one flight-recorder bundle as the self-contained
// post-mortem artifact: everything the system knew when the alert
// fired, in a fixed section layout so same-seed bundles are
// byte-identical (the scenario test pins two exported bundles).
func Incident(inc flightrec.Incident) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Incident #%d: %s%s ==\n", inc.ID, inc.Rule, inc.Labels.Signature())
	fmt.Fprintf(&b, "severity:   %s\n", orDash(inc.Severity))
	fmt.Fprintf(&b, "value:      %.4g\n", inc.Value)
	fmt.Fprintf(&b, "pending:    t=%.2fh\n", inc.PendingAt)
	fmt.Fprintf(&b, "fired:      t=%.2fh\n", inc.FiredAt)
	if inc.ResolvedAt >= 0 {
		fmt.Fprintf(&b, "resolved:   t=%.2fh (firing for %.2fh)\n", inc.ResolvedAt, inc.ResolvedAt-inc.FiredAt)
	} else {
		b.WriteString("resolved:   still firing\n")
	}
	fmt.Fprintf(&b, "window:     [%.2fh, %.2fh]\n", inc.WindowFrom, inc.WindowTo)
	for _, e := range inc.Exprs {
		fmt.Fprintf(&b, "expr:       %s\n", e)
	}

	if inc.Dashboard != "" {
		b.WriteString("\n-- Dashboard at firing --\n")
		b.WriteString(inc.Dashboard)
	}

	b.WriteString("\n-- Series in window --\n")
	if len(inc.Series) == 0 {
		b.WriteString("(none)\n")
	}
	for _, s := range inc.Series {
		fmt.Fprintf(&b, "%s\n", s.ID())
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %g %g\n", p.T, p.V)
		}
	}

	b.WriteString("\n-- Logs in window --\n")
	if len(inc.Logs) == 0 {
		b.WriteString("(none)\n")
	} else {
		b.WriteString(logging.Render(inc.Logs))
	}

	b.WriteString("\n-- Top-cost traces in window --\n")
	if len(inc.Traces) == 0 {
		b.WriteString("(none)\n")
	}
	for _, it := range inc.Traces {
		fmt.Fprintf(&b, "trace %s  %s  cost %.4g  (%d spans)\n",
			it.Data.ID, it.Data.Name, it.Cost, len(it.Data.Spans))
		b.WriteString(trace.RenderCriticalPath(it.Data))
	}

	b.WriteString("\n-- Active chaos faults --\n")
	if len(inc.Faults) == 0 {
		b.WriteString("(none)\n")
	}
	for _, f := range inc.Faults {
		fmt.Fprintf(&b, "t=%.2fh %s %s", f.InjectedAt, f.Fault.Kind, f.Fault.Target)
		if f.Fault.Duration > 0 {
			fmt.Fprintf(&b, " (until t=%.2fh)", f.Fault.At+f.Fault.Duration)
		}
		b.WriteByte('\n')
	}

	b.WriteString("\n-- Spot notices overlapping window --\n")
	if len(inc.Spot) == 0 {
		b.WriteString("(none)\n")
	}
	for _, n := range inc.Spot {
		fmt.Fprintf(&b, "t=%.2fh pool=%s instance=%s reclaim_at=%.2fh\n",
			n.NoticedAt, n.Pool, n.InstanceID, n.ReclaimAt)
	}
	return b.String()
}

// IncidentList renders the `chameleonctl incidents list` table: one row
// per retained bundle.
func IncidentList(incs []flightrec.Incident) string {
	if len(incs) == 0 {
		return "incidents: none captured\n"
	}
	rows := [][]string{{"id", "rule", "labels", "severity", "fired", "resolved", "logs", "series", "traces"}}
	for _, inc := range incs {
		resolved := "firing"
		if inc.ResolvedAt >= 0 {
			resolved = fmt.Sprintf("t=%.2fh", inc.ResolvedAt)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", inc.ID),
			inc.Rule,
			orDash(inc.Labels.Signature()),
			orDash(inc.Severity),
			fmt.Sprintf("t=%.2fh", inc.FiredAt),
			resolved,
			fmt.Sprintf("%d", len(inc.Logs)),
			fmt.Sprintf("%d", len(inc.Series)),
			fmt.Sprintf("%d", len(inc.Traces)),
		})
	}
	return Table(rows)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

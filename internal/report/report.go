// Package report renders the paper's tables and figures from simulation
// results as aligned text tables and ASCII charts: Table 1
// (per-assignment usage and cost), Fig. 1 (expected vs actual duration
// per lab), Fig. 2 (per-student cost distribution), and Fig. 3 (project
// usage by instance type).
package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/stats"
	"repro/internal/studentsim"
)

// Table renders rows as an aligned text table. The first row is the
// header.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, cell := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Bar renders a labeled horizontal bar scaled to maxValue over width
// characters.
func Bar(value, maxValue float64, width int) string {
	if maxValue <= 0 || value < 0 {
		return ""
	}
	n := int(value / maxValue * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("█", n)
}

// Table1 renders the simulated counterpart of the paper's Table 1,
// including the total row. Costs are whole-course dollars with
// per-student values in parentheses, exactly like the paper.
func Table1(res *studentsim.Result) (string, error) {
	n := float64(res.Config.Students)
	rows := [][]string{{"Assignment", "Instance Type", "Instance Hours", "Floating IP Hours", "AWS Cost", "GCP Cost"}}
	var totalInst, totalFIP, totalAWS, totalGCP float64
	for _, row := range course.Rows() {
		inst := res.RowInstanceHours[row.ID]
		fip := res.RowFIPHours[row.ID]
		usage := cost.LabUsage{RowID: row.ID, InstanceHours: inst, FIPHours: fip}
		aws, err := cost.LabRowCost(usage, cost.AWS)
		if err != nil {
			return "", err
		}
		gcp, err := cost.LabRowCost(usage, cost.GCP)
		if err != nil {
			return "", err
		}
		awsCell, gcpCell := money(aws, n), money(gcp, n)
		if _, err := cost.LabEquivalent(row.ID); errors.Is(err, cost.ErrNoEquivalent) {
			awsCell, gcpCell = "NA", "NA"
		}
		rows = append(rows, []string{
			row.Assignment,
			flavorLabel(row),
			fmt.Sprintf("%.0f", inst),
			fmt.Sprintf("%.0f", fip),
			awsCell,
			gcpCell,
		})
		totalInst += inst
		totalFIP += fip
		totalAWS += aws
		totalGCP += gcp
	}
	rows = append(rows, []string{"Total", "",
		fmt.Sprintf("%.0f", totalInst), fmt.Sprintf("%.0f", totalFIP),
		money(totalAWS, n), money(totalGCP, n)})
	return Table(rows), nil
}

func flavorLabel(row course.Row) string {
	if row.VMsPerStudent > 1 {
		return fmt.Sprintf("%s (x%d)", row.Flavor.Name, row.VMsPerStudent)
	}
	return row.Flavor.Name
}

func money(total, students float64) string {
	return fmt.Sprintf("$%.0f ($%.2f)", total, total/students)
}

// fig1Entry carries one row's distribution for rendering.
type fig1Entry struct {
	id       string
	expected float64
	mean     float64
	p25      float64
	median   float64
	p75      float64
	max      float64
}

// Fig1 renders expected vs actual per-student hours for each lab, split
// into the paper's two panels: (a) on-demand VM labs, where actual far
// exceeds expected, and (b) reservation-backed bare-metal/edge labs,
// where actual tracks expected. Like the paper's figure, the per-student
// distribution is shown (median and interquartile range), not just the
// mean.
func Fig1(res *studentsim.Result) string {
	n := float64(res.Config.Students)
	var vm, bm []fig1Entry
	for _, row := range course.Rows() {
		perStudent := make([]float64, 0, len(res.Students))
		for _, s := range res.Students {
			perStudent = append(perStudent, s.InstHours[row.ID])
		}
		sum := stats.Summarize(perStudent)
		e := fig1Entry{
			id:       row.ID,
			expected: row.ExpectedHours * float64(row.VMsPerStudent) * row.Share,
			mean:     res.RowInstanceHours[row.ID] / n,
			p25:      sum.P25,
			median:   sum.Median,
			p75:      sum.P75,
			max:      sum.Max,
		}
		if row.Reserved() {
			bm = append(bm, e)
		} else {
			vm = append(vm, e)
		}
	}
	var b strings.Builder
	render := func(title string, entries []fig1Entry) {
		fmt.Fprintf(&b, "%s\n", title)
		var max float64
		for _, e := range entries {
			if e.mean > max {
				max = e.mean
			}
			if e.expected > max {
				max = e.expected
			}
		}
		for _, e := range entries {
			fmt.Fprintf(&b, "  %-16s expected %6.2f h |%s\n", e.id, e.expected, Bar(e.expected, max, 40))
			fmt.Fprintf(&b, "  %-16s actual   %6.2f h |%s\n", "", e.mean, Bar(e.mean, max, 40))
			fmt.Fprintf(&b, "  %-16s students p25=%.1f  median=%.1f  p75=%.1f  max=%.1f\n",
				"", e.p25, e.median, e.p75, e.max)
		}
		b.WriteByte('\n')
	}
	render("Fig 1a: VM instances (per-student hours; on-demand, no auto-termination)", vm)
	render("Fig 1b: bare metal and edge (per-student hours; reservation-backed)", bm)
	return b.String()
}

// Fig2 renders the per-student cost histogram with the summary line §5
// reports (mean, max, expected baseline, exceedance fraction).
func Fig2(res *studentsim.Result, p cost.Provider) (string, error) {
	paper := course.Paper()
	expected := paper.ExpectedLabCostAWS
	if p == cost.GCP {
		expected = paper.ExpectedLabCostGCP
	}
	costs, err := studentsim.StudentCosts(res, p)
	if err != nil {
		return "", err
	}
	sum := stats.Summarize(costs)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2 (%s): per-student lab cost  mean=$%.0f  max=$%.0f  expected=$%.2f  %.0f%% exceed expected\n",
		p, sum.Mean, sum.Max, expected, 100*stats.FractionAbove(costs, expected))
	b.WriteString(stats.ASCIIHistogram(costs, 12, 44, func(e float64) string {
		return fmt.Sprintf("$%.0f", e)
	}))
	return b.String(), nil
}

// Fig3 renders project usage by instance type for the non-GPU and GPU
// panels.
func Fig3(proj *studentsim.ProjectResult) string {
	var b strings.Builder
	render := func(title string, m map[string]float64) {
		fmt.Fprintf(&b, "%s\n", title)
		keys := make([]string, 0, len(m))
		var max float64
		for k, v := range m {
			keys = append(keys, k)
			if v > max {
				max = v
			}
		}
		// Largest first; equal hours (gpu-a100 and gpu-medium tie at seed
		// 1) fall back to the class name, so map order never shows.
		sort.Slice(keys, func(i, j int) bool {
			if a, b := m[keys[i]], m[keys[j]]; a != b {
				return a > b
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-12s %8.0f h |%s\n", k, m[k], Bar(m[k], max, 40))
		}
		b.WriteByte('\n')
	}
	render("Fig 3: project VM hours by instance type", proj.Usage.VMHours)
	render("Fig 3: project GPU hours by instance class", proj.Usage.GPUHours)
	fmt.Fprintf(&b, "  plus %.0f bare-metal h, %.0f edge h, %.1f TB block, %.0f GB object storage\n",
		proj.Usage.BMHours, proj.Usage.EdgeHours,
		proj.Usage.BlockGBMonths/1024/1.5, proj.Usage.ObjectGBMonths/1.5)
	return b.String()
}

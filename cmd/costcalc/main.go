// Command costcalc estimates commercial-cloud costs for ad-hoc resource
// specs using the paper's July-2025 price catalog.
//
// Usage:
//
//	costcalc -row 2 -hours 300 -fip-hours 100        # a Table-1 row
//	costcalc -class gpu-a100 -hours 48               # a project class
//	costcalc -expected                               # expected per-student lab cost
//	costcalc -catalog                                # dump the price catalog
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costcalc: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run prints the requested estimate to out and returns the exit code:
// 0 on success, 1 on a rejected input, 2 on a flag the parser rejects.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("costcalc", flag.ContinueOnError)
	var (
		rowID    = fs.String("row", "", "Table-1 row ID (e.g. 2, 4-multi-a100)")
		class    = fs.String("class", "", "project instance class (e.g. gpu-a100)")
		hours    = fs.Float64("hours", 0, "instance hours")
		fipHours = fs.Float64("fip-hours", 0, "floating-IP hours")
		expected = fs.Bool("expected", false, "price the §3 expected per-student durations")
		catalog  = fs.Bool("catalog", false, "print the price catalog")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	badHours := checkHour("-hours", *hours)
	if badHours == nil {
		badHours = checkHour("-fip-hours", *fipHours)
	}
	var err error
	switch {
	case *catalog:
		err = printCatalog(out)
	case *expected:
		err = printExpected(out)
	case (*rowID != "" || *class != "") && badHours != nil:
		err = badHours
	case *rowID != "":
		err = printRow(out, *rowID, *hours, *fipHours)
	case *class != "":
		err = printClass(out, *class, *hours)
	default:
		fs.Usage()
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// maxHours bounds the hour flags: a billion instance hours is far beyond
// any course, and times the dearest rate it still prints a finite price.
const maxHours = 1e9

// checkHour rejects an hour count that would print a negative, NaN or
// infinite price; the comparison is false for NaN too.
func checkHour(flag string, v float64) error {
	if !(v >= 0 && v <= maxHours) {
		return fmt.Errorf("%s must be a number of hours from 0 to %g, got %v", flag, maxHours, v)
	}
	return nil
}

// printRow prices a Table-1 row on each provider. A row with no
// commercial equivalent (the Raspberry Pi row) is an error.
func printRow(out io.Writer, rowID string, hours, fipHours float64) error {
	eq, err := cost.LabEquivalent(rowID)
	if err != nil {
		return err
	}
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		c, err := cost.LabRowCost(cost.LabUsage{RowID: rowID, InstanceHours: hours, FIPHours: fipHours}, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: $%.2f  (%s @ $%.4f/h + IP @ $%.3f/h)\n",
			p, c, eq.Rate(p).Instance, eq.Rate(p).PerHour, cost.FloatingIPRate)
	}
	return nil
}

func printClass(out io.Writer, class string, hours float64) error {
	eq, err := cost.ProjectEquivalent(class)
	if err != nil {
		return err
	}
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		fmt.Fprintf(out, "%s: $%.2f  (%s @ $%.4f/h)\n",
			p, hours*eq.Rate(p).PerHour, eq.Rate(p).Instance, eq.Rate(p).PerHour)
	}
	return nil
}

func printExpected(out io.Writer) error {
	var usages []cost.LabUsage
	for _, r := range course.Rows() {
		usages = append(usages, cost.LabUsage{
			RowID:         r.ID,
			InstanceHours: r.ExpectedHours * float64(r.VMsPerStudent) * r.Share,
			FIPHours:      r.ExpectedHours * r.Share,
		})
	}
	for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
		c, err := cost.LabCost(usages, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "expected per-student lab cost on %s: $%.2f\n", p, c)
	}
	return nil
}

func printCatalog(out io.Writer) error {
	rows := [][]string{{"Row", "AWS Equivalent", "AWS $/h", "GCP Equivalent", "GCP $/h"}}
	for _, r := range course.Rows() {
		eq, err := cost.LabEquivalent(r.ID)
		if errors.Is(err, cost.ErrNoEquivalent) {
			rows = append(rows, []string{r.ID, "—", "—", "—", "—"})
			continue
		}
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			r.ID,
			eq.AWS.Instance, fmt.Sprintf("%.4f", eq.AWS.PerHour),
			eq.GCP.Instance, fmt.Sprintf("%.4f", eq.GCP.PerHour),
		})
	}
	fmt.Fprint(out, report.Table(rows))
	fmt.Fprintf(out, "floating IP: $%.3f/h on both providers\n", cost.FloatingIPRate)
	fmt.Fprintf(out, "block storage: $%.2f (AWS) / $%.2f (GCP) per GB-month\n",
		cost.BlockGBMonthRate(cost.AWS), cost.BlockGBMonthRate(cost.GCP))
	fmt.Fprintf(out, "object storage: $%.3f (AWS) / $%.3f (GCP) per GB-month\n",
		cost.ObjectGBMonthRate(cost.AWS), cost.ObjectGBMonthRate(cost.GCP))
	return nil
}

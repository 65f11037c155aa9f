// Command coursesim runs the full course simulation and regenerates the
// paper's Table 1 and Figures 1–3, plus the §5 headline numbers and the
// capacity-planning views.
//
// Usage:
//
//	coursesim [-students N] [-seed S] [-table1] [-fig1] [-fig2] [-fig3]
//	          [-summary] [-quota] [-reservations] [-support] [-platforms]
//	          [-seeds N] [-csv DIR]
//	coursesim -sharded [-students N] [-seed S] [-shardsize N] [-workers N]
//
// With no selection flags, everything is printed. -seeds N, for N > 1,
// also runs seeds 1..N and prints the headline's mean and spread; -csv
// also writes the figures' data as CSV files.
//
// -sharded switches to the streaming parallel core (internal/shardsim)
// and prints its report only: memory stays bounded in the population
// size, so -students can go to a million and beyond. The output is
// byte-identical for every -shardsize, -workers, and GOMAXPROCS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/platforms"
	"repro/internal/report"
	"repro/internal/shardsim"
	"repro/internal/stats"
	"repro/internal/support"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coursesim: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run prints the requested report to out and returns the exit code: 0 on
// success, 1 on a failed run, 2 on a flag the parser rejects. The default
// report at seed 1 is pinned by the module root's scenario test.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("coursesim", flag.ContinueOnError)
	var (
		students = fs.Int("students", course.Enrollment, "enrollment")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		table1   = fs.Bool("table1", false, "print Table 1")
		fig1     = fs.Bool("fig1", false, "print Fig 1 (expected vs actual)")
		fig2     = fs.Bool("fig2", false, "print Fig 2 (cost distribution)")
		fig3     = fs.Bool("fig3", false, "print Fig 3 (project usage)")
		summary  = fs.Bool("summary", false, "print headline totals")
		quota    = fs.Bool("quota", false, "print peak concurrency vs quota")
		reserve  = fs.Bool("reservations", false, "print GPU reservation plan")
		supp     = fs.Bool("support", false, "print forum/office-hour support load")
		csvDir   = fs.String("csv", "", "also write table1/fig1/fig2/fig3 CSVs to this directory")
		platf    = fs.Bool("platforms", false, "print the §4 platform capability matrix")
		seeds    = fs.Int("seeds", 0, "for N > 1, also run seeds 1..N and print the headline's mean/std (robustness check)")
		sharded  = fs.Bool("sharded", false, "run the sharded parallel core and print its report")
		shardsz  = fs.Int("shardsize", 0, "students per shard (sharded mode; 0 = default 4096)")
		workers  = fs.Int("workers", 0, "worker goroutines (sharded mode; 0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		log.Print(err)
		return 1
	}
	if *seeds < 0 {
		return fail(fmt.Errorf("negative -seeds %d", *seeds))
	}
	if *sharded {
		rep, err := shardsim.Run(shardsim.Config{
			Students:  *students,
			Seed:      *seed,
			ShardSize: *shardsz,
			Workers:   *workers,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(out, report.Sharded(rep))
		return 0
	}
	all := !(*table1 || *fig1 || *fig2 || *fig3 || *summary || *quota || *reserve || *supp || *platf)

	s, err := core.Planner{Students: *students, Seed: *seed}.Run()
	if err != nil {
		return fail(err)
	}
	paper := course.Paper()

	if all || *summary {
		fmt.Fprintf(out, "Machine Learning Systems Engineering and Operations — simulated offering\n")
		fmt.Fprintf(out, "students=%d seed=%d\n\n", s.Labs.Config.Students, s.Labs.Config.Seed)
		fmt.Fprintf(out, "lab instance hours:   %9.0f   (paper: %.0f)\n", s.LabInstanceHours, paper.LabInstanceHours)
		fmt.Fprintf(out, "lab floating-IP hrs:  %9.0f   (paper: %.0f)\n", s.LabFIPHours, paper.LabFIPHours)
		fmt.Fprintf(out, "total compute hours:  %9.0f   (paper: 186692)\n", s.TotalHours())
		fmt.Fprintf(out, "lab cost:      AWS $%8.0f  GCP $%8.0f   (paper: $%.0f / $%.0f)\n",
			s.LabCostAWS, s.LabCostGCP, paper.LabCostAWS, paper.LabCostGCP)
		fmt.Fprintf(out, "project cost:  AWS $%8.0f  GCP $%8.0f   (paper: $%.0f / $%.0f)\n",
			s.ProjectCostAWS, s.ProjectCostGCP, paper.ProjectCostAWS, paper.ProjectCostGCP)
		fmt.Fprintf(out, "per student:   AWS $%8.0f  GCP $%8.0f   (paper: ≈$250)\n\n",
			s.PerStudentAWS, s.PerStudentGCP)
	}
	if *seeds > 1 {
		if err := printSeedSweep(out, s, *seeds); err != nil {
			return fail(err)
		}
	}
	if all || *table1 {
		fmt.Fprintln(out, "Table 1: usage and estimated cost by lab assignment and node type")
		t, err := report.Table1(s.Labs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(out, t)
	}
	if all || *fig1 {
		fmt.Fprintln(out, report.Fig1(s.Labs))
	}
	if all || *fig2 {
		for _, p := range []cost.Provider{cost.AWS, cost.GCP} {
			f, err := report.Fig2(s.Labs, p)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(out, f)
		}
	}
	if all || *fig3 {
		fmt.Fprintln(out, report.Fig3(s.Projects))
	}
	if all || *quota {
		fmt.Fprintln(out, "Peak simultaneous usage vs the requested KVM@TACC quota:")
		peak := core.PeakConcurrency(s.Labs)
		for _, line := range core.QuotaCheck(peak, cloud.CourseQuota()) {
			fmt.Fprintf(out, "  %s\n", line)
		}
		fmt.Fprintln(out)
	}
	if all || *platf {
		fmt.Fprintln(out, "Platform comparison (paper §4):")
		fmt.Fprintln(out, platforms.Matrix())
		for _, v := range platforms.Evaluate(platforms.CourseRequirements()) {
			verdict := "unsuitable"
			if v.Qualified {
				verdict = "QUALIFIES"
			}
			fmt.Fprintf(out, "  %-18s %-10s %s\n", v.Platform.Name, verdict, v.Platform.Notes)
		}
		fmt.Fprintln(out)
	}
	if all || *supp {
		fmt.Fprintln(out, "Human support infrastructure (paper: >700 threads, >3000 posts):")
		fmt.Fprintln(out, support.Simulate(support.Config{Students: *students, Seed: *seed}).Summary())
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, s); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "wrote CSVs to %s\n\n", *csvDir)
	}
	if all || *reserve {
		fmt.Fprintln(out, "Advance GPU reservation plan (week-long staff holds):")
		rows := [][]string{{"Node Type", "Week", "Nodes", "Demand (h)", "Utilization"}}
		for _, p := range core.PlanReservations(s.Labs.Config.Students) {
			rows = append(rows, []string{
				p.NodeType,
				fmt.Sprintf("%d", p.Week),
				fmt.Sprintf("%d", p.Nodes),
				fmt.Sprintf("%.0f", p.DemandHours),
				fmt.Sprintf("%.0f%%", 100*p.Utilization),
			})
		}
		fmt.Fprintln(out, report.Table(rows))
	}
	return 0
}

// writeCSVs emits the machine-readable figure data.
func writeCSVs(dir string, s *core.Summary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]func() (string, error){
		"table1.csv":   func() (string, error) { return report.Table1CSV(s.Labs) },
		"fig1.csv":     func() (string, error) { return report.Fig1CSV(s.Labs) },
		"fig2_aws.csv": func() (string, error) { return report.Fig2CSV(s.Labs, cost.AWS) },
		"fig2_gcp.csv": func() (string, error) { return report.Fig2CSV(s.Labs, cost.GCP) },
		"fig3.csv":     func() (string, error) { return report.Fig3CSV(s.Projects) },
	}
	for name, gen := range files {
		data, err := gen()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printSeedSweep reports headline stability across seeds 1..n at the
// enrollment of ran, reusing ran for its own seed.
func printSeedSweep(out io.Writer, ran *core.Summary, n int) error {
	var hours, aws []float64
	for seed := uint64(1); seed <= uint64(n); seed++ {
		s := ran
		if seed != ran.Labs.Config.Seed {
			var err error
			s, err = core.Planner{Students: ran.Labs.Config.Students, Seed: seed}.Run()
			if err != nil {
				return err
			}
		}
		hours = append(hours, s.LabInstanceHours)
		aws = append(aws, s.LabCostAWS)
	}
	h := stats.Summarize(hours)
	a := stats.Summarize(aws)
	fmt.Fprintf(out, "robustness over %d seeds: lab hours %.0f ± %.0f (%.2f%%), AWS cost $%.0f ± $%.0f\n\n",
		n, h.Mean, h.Std, 100*h.Std/h.Mean, a.Mean, a.Std)
	return nil
}

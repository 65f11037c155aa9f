package repro

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/mlcore"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/studentsim"
)

// EXPERIMENTS.md sets the simulator's numbers beside the paper's. Each
// simulated number in it sits in a block
//
//	<!-- begin NAME -->
//	...
//	<!-- end -->
//
// whose whole text, caption first, the renderer NAME writes, so the seed a
// caption states is the one its numbers came from. Outside the blocks the
// document cites only the paper's own values and names the scenario
// goldens that pin the rest.
type experimentBlock struct {
	name string
	// render gets the seed-1 course run that several blocks print.
	render func(seed1 *core.Summary) string
}

var experimentBlocks = []experimentBlock{
	{"headline", renderHeadline},
	{"table1", renderTable1},
	{"fig2", renderFig2},
	{"levers", renderLevers},
	{"sched", renderSched},
	{"ddp", renderDDP},
	{"autoscale", renderAutoscale},
}

const blockBegin, blockEnd = "<!-- begin ", "<!-- end -->\n"

// TestExperimentsDoc re-renders every block of EXPERIMENTS.md, splices the
// blocks into the document it read, and fails on any difference. A block
// that no renderer writes is dropped, and a renderer with no block appends
// one at the end, so the re-rendered document that checkGolden writes to
// out/EXPERIMENTS.md can be copied over EXPERIMENTS.md.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	seed1 := must(core.Planner{Seed: 1}.Run())
	var got strings.Builder
	seen := make([]bool, len(experimentBlocks))
	for rest := string(doc); ; {
		before, after, found := strings.Cut(rest, blockBegin)
		got.WriteString(before)
		if !found {
			break
		}
		name, body, _ := strings.Cut(after, " -->\n")
		old, tail, ok := strings.Cut(body, blockEnd)
		if !ok || strings.Contains(name, "\n") || strings.Contains(old, blockBegin) {
			t.Fatalf("EXPERIMENTS.md: the block begun by %q has no %q line before the next block or the end", blockBegin+name, strings.TrimSpace(blockEnd))
		}
		rest = tail
		i := slices.IndexFunc(experimentBlocks, func(b experimentBlock) bool { return b.name == name })
		if i < 0 {
			t.Errorf("EXPERIMENTS.md has a block %s that no renderer writes", name)
			continue
		}
		seen[i] = true
		got.WriteString(blockBegin + name + " -->\n" + experimentBlocks[i].render(seed1) + blockEnd)
	}
	for i, b := range experimentBlocks {
		if !seen[i] {
			t.Errorf("renderer %s has no block in EXPERIMENTS.md", b.name)
			got.WriteString("\n" + blockBegin + b.name + " -->\n" + b.render(seed1) + blockEnd)
		}
	}
	checkGolden(t, 1, "the re-rendered document", []byte(got.String()), "EXPERIMENTS.md", "")
}

// renderHeadline writes §5's totals and the abstract's per-student figure.
func renderHeadline(s *core.Summary) string {
	p := course.Paper()
	paperHours := p.LabInstanceHours + p.ProjectVMHours + p.ProjectGPUHours + p.ProjectBMHours + p.ProjectEdgeHours
	exact := func(name string, paper, sim float64, format func(float64) string) []string {
		return []string{name, format(paper), format(sim), fmt.Sprintf("%+.2f%%", 100*(sim-paper)/paper)}
	}
	return runCaption(s, "") + markdownTable([][]string{
		{"Quantity", "Paper", "Sim", "Sim vs paper"},
		exact("Total compute hours (labs + projects)", paperHours, s.TotalHours(), grouped),
		exact("Lab instance hours", p.LabInstanceHours, s.LabInstanceHours, grouped),
		exact("Lab floating-IP hours", p.LabFIPHours, s.LabFIPHours, grouped),
		exact("Lab cost AWS", p.LabCostAWS, s.LabCostAWS, dollars),
		exact("Lab cost GCP", p.LabCostGCP, s.LabCostGCP, dollars),
		exact("Project cost AWS", p.ProjectCostAWS, s.ProjectCostAWS, dollars),
		exact("Project cost GCP", p.ProjectCostGCP, s.ProjectCostGCP, dollars),
		{"Per student, labs + projects, AWS", "≈$250", dollars(s.PerStudentAWS), ""},
		{"Per student, labs + projects, GCP", "≈$250", dollars(s.PerStudentGCP), ""},
		{"Course total AWS", "≈$50,000", dollars(s.LabCostAWS + s.ProjectCostAWS), ""},
		{"Course total GCP", "≈$50,000", dollars(s.LabCostGCP + s.ProjectCostGCP), ""},
	})
}

// renderTable1 writes Table 1, paper beside sim, row by row.
func renderTable1(s *core.Summary) string {
	n := float64(course.Enrollment)
	rows := [][]string{{"Assignment", "Instance type", "Instance hours (paper → sim)", "AWS cost (paper → sim)", "GCP cost (paper → sim)"}}
	for _, row := range course.Rows() {
		flavor := row.Flavor.Name
		if row.VMsPerStudent > 1 {
			flavor += fmt.Sprintf(" ×%d", row.VMsPerStudent)
		}
		paper := cost.LabUsage{RowID: row.ID, InstanceHours: row.TargetHours * n, FIPHours: row.TargetFIPHours * n}
		sim := cost.LabUsage{RowID: row.ID, InstanceHours: s.Labs.RowInstanceHours[row.ID], FIPHours: s.Labs.RowFIPHours[row.ID]}
		cells := []string{row.Assignment, flavor, grouped(paper.InstanceHours) + " → " + grouped(sim.InstanceHours)}
		for _, prov := range []cost.Provider{cost.AWS, cost.GCP} {
			if _, err := cost.LabEquivalent(row.ID); errors.Is(err, cost.ErrNoEquivalent) {
				cells = append(cells, "NA")
			} else {
				cells = append(cells, dollars(must(cost.LabRowCost(paper, prov)))+" → "+dollars(must(cost.LabRowCost(sim, prov))))
			}
		}
		rows = append(rows, cells)
	}
	p := course.Paper()
	students := float64(s.Labs.Config.Students)
	rows = append(rows, []string{"**Total**", "",
		fmt.Sprintf("**%s → %s**", grouped(p.LabInstanceHours), grouped(s.LabInstanceHours)),
		fmt.Sprintf("**%s → %s ($%.2f/student)**", dollars(p.LabCostAWS), dollars(s.LabCostAWS), s.LabCostAWS/students),
		fmt.Sprintf("**%s → %s ($%.2f/student)**", dollars(p.LabCostGCP), dollars(s.LabCostGCP), s.LabCostGCP/students)})
	return runCaption(s, " The paper's per-row dollars are its hours priced with this repository's catalog (`internal/cost`); its totals are its own.") +
		markdownTable(rows)
}

// renderFig2 writes the per-student cost distribution's statistics.
func renderFig2(s *core.Summary) string {
	p := course.Paper()
	a, g := s.Fig2AWS, s.Fig2GCP
	return runCaption(s, "") + markdownTable([][]string{
		{"Statistic", "Paper AWS", "Sim AWS", "Paper GCP", "Sim GCP"},
		{"Mean", fmt.Sprintf("$%.0f", p.LabCostPerStudentAWS), fmt.Sprintf("$%.2f", a.Mean),
			fmt.Sprintf("$%.0f", p.LabCostPerStudentGCP), fmt.Sprintf("$%.2f", g.Mean)},
		{"Max (the most expensive student)", fmt.Sprintf("$%.0f", p.MaxStudentAWS), fmt.Sprintf("$%.2f", a.Max),
			fmt.Sprintf("$%.0f", p.MaxStudentGCP), fmt.Sprintf("$%.2f", g.Max)},
		{fmt.Sprintf("Share over expected ($%.2f AWS, $%.2f GCP)", a.Expected, g.Expected),
			fmt.Sprintf("%.0f%%", 100*p.ExceedFracAWS), fmt.Sprintf("%.1f%%", 100*a.ExceedFrac),
			fmt.Sprintf("%.0f%%", 100*p.ExceedFracGCP), fmt.Sprintf("%.1f%%", 100*g.ExceedFrac)},
	})
}

// renderLevers writes Fig. 2's statistics under studentsim.Behavior levers.
func renderLevers(s *core.Summary) string {
	rows := [][]string{{"Behaviour", "AWS mean", "AWS max", "AWS over expected", "GCP mean", "GCP max", "GCP over expected"}}
	for _, l := range []struct {
		name     string
		behavior *studentsim.Behavior
	}{
		{"calibrated", nil},
		{"`DisableOverhang`: every VM lab ends at its working time", &studentsim.Behavior{DisableOverhang: true}},
		{"`PromptDeleteFrac` 0.25", &studentsim.Behavior{PromptDeleteFrac: 0.25}},
		{"`PromptDeleteFrac` 0.65", &studentsim.Behavior{PromptDeleteFrac: 0.65}},
		{"`PromptDeleteFrac` 0.85", &studentsim.Behavior{PromptDeleteFrac: 0.85}},
	} {
		a, g := s.Fig2AWS, s.Fig2GCP
		if l.behavior != nil {
			labs := must(studentsim.SimulateLabs(studentsim.Config{Seed: s.Labs.Config.Seed, Behavior: l.behavior}))
			a, g = must(studentsim.Fig2(labs, cost.AWS, a.Expected)), must(studentsim.Fig2(labs, cost.GCP, g.Expected))
		}
		rows = append(rows, []string{l.name,
			fmt.Sprintf("$%.2f", a.Mean), fmt.Sprintf("$%.2f", a.Max), fmt.Sprintf("%.1f%%", 100*a.ExceedFrac),
			fmt.Sprintf("$%.2f", g.Mean), fmt.Sprintf("$%.2f", g.Max), fmt.Sprintf("%.1f%%", 100*g.ExceedFrac)})
	}
	return runCaption(s, "") + markdownTable(rows)
}

// renderSched writes Unit 5's gang-scheduling policies and preemption.
func renderSched(*core.Summary) string {
	const jobs, seed, gpus = 600, 4, 32
	trace := sched.GenerateTrace(sched.DefaultTrace(jobs), stats.NewRNG(seed))
	policies := [][]string{{"Policy", "Mean wait (h)", "Utilization"}}
	for _, policy := range []string{sched.PolicyFIFO, sched.PolicyBackfill, sched.PolicyFairShare} {
		res := must(sched.Run(policy, trace, gpus))
		policies = append(policies, []string{policy, fmt.Sprintf("%.3f", res.AvgWait), fmt.Sprintf("%.1f%%", 100*res.Utilization)})
	}

	const hiJobs, hiSeed, hiGPUs, hiEvery, hiWeight = 400, 13, 16, 10, 8
	trace = sched.GenerateTrace(sched.DefaultTrace(hiJobs), stats.NewRNG(hiSeed))
	for i, j := range trace {
		if i%hiEvery == 0 {
			j.Weight = hiWeight
		}
	}
	var hiWait, hi float64
	for _, a := range must(sched.Run(sched.PolicyBackfill, trace, hiGPUs)).Assignments {
		if a.Job.Weight > 1 {
			hiWait += a.Wait()
			hi++
		}
	}
	preemptive := must(sched.RunPreemptive(trace, hiGPUs))
	return fmt.Sprintf("A %d-job trace (`sched.DefaultTrace`, seed %d) on %d GPUs.\n\n", jobs, seed, gpus) +
		markdownTable(policies) +
		fmt.Sprintf("\nA %d-job trace (seed %d) with every %dth job at weight %d, on %d GPUs.\n\n", hiJobs, hiSeed, hiEvery, hiWeight, hiGPUs) +
		markdownTable([][]string{
			{"Policy", "High-priority mean first-start wait (h)", "Preemptions"},
			{sched.PolicyBackfill, fmt.Sprintf("%.3f", hiWait/hi), "—"},
			{"preemptive", fmt.Sprintf("%.3f", preemptive.AvgHighPriorityWait), fmt.Sprint(preemptive.TotalPreemptions)},
		})
}

// renderDDP writes Unit 4's data-parallel training over the ring all-reduce.
func renderDDP(*core.Summary) string {
	const samples, features, classes, seed, trainFrac, epochs, batch = 4000, 10, 4, 2, 0.9, 3, 50
	trainSet, testSet := mlcore.Blobs(samples, features, classes, 0.8, stats.NewRNG(seed)).Split(trainFrac)
	rows := [][]string{{"Workers", "Test accuracy"}}
	for _, workers := range []int{1, 2, 4, 8} {
		m := mlcore.NewSoftmaxClassifier(trainSet.Features(), trainSet.Classes)
		must(mlcore.Train(m, trainSet, mlcore.TrainConfig{Epochs: epochs, BatchSize: batch, LR: 0.2, Workers: workers}))
		rows = append(rows, []string{fmt.Sprint(workers), fmt.Sprintf("%.4f", m.Accuracy(testSet))})
	}
	return fmt.Sprintf("%s blobs (%d features, %d classes, data seed %d), %.0f%% of them for training, %d epochs of batch %d.\n\n",
		grouped(samples), features, classes, seed, 100*trainFrac, epochs, batch) + markdownTable(rows)
}

// renderAutoscale writes static against autoscaled serving (Units 2 and 6).
func renderAutoscale(*core.Summary) string {
	const base, peakFactor, target, maxBatch = 200, 5, 0.7, 8
	cfg := serve.Config{Model: serve.FoodClassifier(), Device: serve.DeviceServer, MaxBatch: maxBatch, Instances: 1}
	curve := serve.DiurnalCurve(base, peakFactor)
	peak := serve.PeakReplicasNeeded(cfg, curve)
	row := func(name string, o serve.ScalingOutcome) []string {
		return []string{name, fmt.Sprintf("%.1f", o.InstanceHours), fmt.Sprintf("%.1f%%", 100*o.MeanUtilization), fmt.Sprintf("%.2f", o.OverloadHours)}
	}
	return fmt.Sprintf("One day at %d requests/s with a %d× evening peak; the food classifier on CPU servers, batches of up to %d. No random draws, so no seed.\n\n",
		base, peakFactor, maxBatch) + markdownTable([][]string{
		{"Provisioning", "Instance-hours per day", "Mean utilization", "Overload hours"},
		row(fmt.Sprintf("static at the peak's %d replicas", peak), must(serve.SimulateStatic(cfg, curve, peak))),
		row(fmt.Sprintf("autoscaled, 1–%d replicas at %.0f%% target", peak+2, 100*target),
			must(serve.SimulateAutoscaled(cfg, curve, serve.AutoscalePolicy{Min: 1, Max: peak + 2, TargetUtilization: target}))),
	})
}

// must returns v, and panics on err: every renderer's inputs are
// constants, so an error is a bug, and the panic fails the test.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runCaption states the run a seed-1 block prints, then note.
func runCaption(s *core.Summary, note string) string {
	return fmt.Sprintf("Seed %d, %d students.%s\n\n", s.Labs.Config.Seed, s.Labs.Config.Students, note)
}

// markdownTable renders rows as a Markdown table headed by rows[0].
func markdownTable(rows [][]string) string {
	var b strings.Builder
	for i, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			b.WriteString(strings.Repeat("|---", len(row)) + "|\n")
		}
	}
	return b.String()
}

// grouped formats a non-negative v as an integer with thousands commas.
func grouped(v float64) string {
	s := fmt.Sprintf("%.0f", v)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// dollars formats a non-negative amount to the nearest dollar.
func dollars(v float64) string { return "$" + grouped(v) }

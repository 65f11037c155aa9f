// Command chameleonctl drives the IaaS simulator interactively, mirroring
// the OpenStack CLI workflow from the Unit-2 lab ("ClickOps" → CLI).
// Commands are read from stdin, one per line; `help` lists them.
//
// API commands run under a trace: launch, reserve, sched and batch each
// record a span tree (placement/boot, queue wait, retries, batching)
// inspectable with the trace subcommands afterwards.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/blockstore"
	"repro/internal/clock"
	"repro/internal/cloud"
	"repro/internal/cost"
	"repro/internal/flightrec"
	"repro/internal/lease"
	"repro/internal/logging"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

func main() {
	log.SetFlags(0)
	run := newSession(os.Stdout)
	fmt.Println("chameleonctl — OpenStack-style CLI over the cloud simulator (type 'help')")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("openstack> ")
	for sc.Scan() {
		if run(sc.Text()) {
			return
		}
		fmt.Print("openstack> ")
	}
}

// command is one entry of the CLI's command table. The table is the only
// statement of what chameleonctl accepts: help, every usage reply and
// every argument-count check come from it.
type command struct {
	name     string // one word, or a group and a subcommand ("trace show")
	synopsis string // the arguments, as help and usage replies print them
	min, max int    // argument count bounds; max -1 means no limit
	run      func(args []string) error
}

// String is the command's help line.
func (c command) String() string {
	if c.synopsis == "" {
		return c.name
	}
	return c.name + " " + c.synopsis
}

var (
	// errUsage makes the dispatcher reply with the command's usage line.
	errUsage = errors.New("usage")
	// errQuit ends the session.
	errQuit = errors.New("quit")
)

// newSession builds the simulated site and returns a dispatcher that runs
// one command line against it, writing every reply to out. The dispatcher
// returns true when the line ends the session.
//
// sched keeps its telemetry and logging hooks at package level, so the
// latest session's bus receives every scheduler run: run one session at
// a time.
func newSession(out io.Writer) func(line string) (quit bool) {
	clk := simclock.New()
	bus := telemetry.New()
	// Structured logs: the third pillar. Same fixed seed as the tracer,
	// so sampled log lines replay identically across scripted sessions.
	logger := logging.New(42, clk.Now)
	logger.SetTelemetry(bus)
	cl := cloud.New("kvm@ctl", clk)
	cl.SetTelemetry(bus)
	cl.SetLogging(logger)
	cl.AddVMCapacity(8, 48, 192)
	// Course-sized quota: the sandbox must fit leased bare-metal GPU
	// nodes (64 cores each), not just small VMs.
	cl.CreateProject("sandbox", cloud.CourseQuota())
	bs := blockstore.New(clk, cl)
	// Spot market: preemptible bare-metal capacity priced by a seeded
	// random walk (fixed seeds, so a scripted session replays the same
	// prices) with the EC2-style two-minute reclamation notice.
	market := cl.EnableSpot(2.0 / 60)
	market.AddPool(cloud.GPUA100PCIe, 2, cost.GenerateSpotPrices(42, cost.SpotSpec{
		OnDemandPerHour: 3.307, Volatility: 0.25, Horizon: 72}))
	market.AddPool(cloud.ComputeLiqid, 2, cost.GenerateSpotPrices(43, cost.SpotSpec{
		OnDemandPerHour: 1.212, Volatility: 0.25, Horizon: 72}))
	// Fixed seed: trace/span IDs are deterministic across sessions, so a
	// scripted run exports byte-identical Chrome JSON every time.
	tracer := trace.New(42, clk.Now)
	ls := lease.New(clk, cl)
	ls.SetTelemetry(bus)
	ls.SetTracer(tracer)
	ls.SetLogging(logger)
	ls.AddPool(cloud.GPUA100PCIe, 2) // registers the bare-metal hosts too
	sched.SetTelemetry(bus)
	sched.SetLogging(logger)
	// Monitoring: the collector scrapes the bus into the TSDB every 0.25
	// simulated hours (advance time to accumulate history), and the alert
	// engine evaluates its rules on every scrape.
	coll := tsdb.NewCollector(tsdb.New(tsdb.Options{}), bus, 0.25)
	// Interactive sessions get real scrape-cost numbers in `tsdb stats`;
	// deterministic outputs never read this clock.
	coll.SetWallClock(clock.System{})
	db := coll.DB()
	eng := alert.NewEngine(db)
	eng.AddRule(alert.Rule{Name: "HostDown", Expr: "cloud.hosts_down > 0",
		For: 0, Severity: "page"})
	coll.OnScrape(eng.Step)
	coll.Start(clk, nil)
	// Flight recorder: armed on the HostDown rule (and anything added
	// later); `fail <host>` then `advance` captures a bundle to browse
	// with the incidents commands.
	rec := flightrec.New(flightrec.Config{
		Engine: eng, DB: db, Logs: logger, Tracer: tracer, Spot: market,
		Dashboard: func(at float64) string { return report.Dashboard(db, eng, at) },
	})
	rec.Arm()

	// show replies with a rendered report; done replies with a
	// confirmation once an action succeeded.
	show := func(s string) error {
		_, err := io.WriteString(out, s)
		return err
	}
	done := func(err error, format string, args ...any) error {
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, format, args...)
		return err
	}
	// incident renders the bundle an `incidents show|export` id names.
	incident := func(arg string) (int, string, error) {
		id, err := strconv.Atoi(arg)
		if err != nil {
			return 0, "", fmt.Errorf("bad incident id: %s", arg)
		}
		inc, ok := rec.Incident(id)
		if !ok {
			return 0, "", fmt.Errorf("no incident #%d (try 'incidents list')", id)
		}
		return id, report.Incident(inc), nil
	}

	var cmds []command
	cmds = []command{
		{"launch", "<name> <flavor>", 2, 2, func(a []string) error {
			flavor, err := cloud.FlavorByName(a[1])
			if err != nil {
				return err
			}
			root := tracer.StartTrace("api.launch "+a[0],
				telemetry.String("flavor", flavor.Name))
			inst, err := cl.Launch(cloud.LaunchSpec{Project: "sandbox", Name: a[0],
				Flavor: flavor, Span: root})
			if err != nil {
				root.Annotate(telemetry.String("error", err.Error()))
				root.Finish()
				return err
			}
			root.Finish()
			fmt.Fprintf(out, "%s ACTIVE on %s\n", inst.ID, inst.Host)
			return nil
		}},
		{"delete", "<id>", 1, 1, func(a []string) error { return done(cl.Delete(a[0]), "deleted\n") }},
		{"list", "", 0, 0, func([]string) error {
			for _, inst := range cl.List(nil) {
				fmt.Fprintf(out, "%-14s %-16s %-14s %-8s fip=%-15s %.1fh\n",
					inst.ID, inst.Name, inst.Flavor.Name, inst.State, inst.FloatingIP, inst.HoursAt(clk.Now()))
			}
			return nil
		}},
		{"fip", "<instance-id>", 1, 1, func(a []string) error {
			fip, err := cl.AllocateFloatingIPFor("sandbox", a[0], cloud.Tags{})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "associated %s\n", fip.Address)
			return nil
		}},
		{"volume", "<name> <sizeGB>", 2, 2, func(a []string) error {
			size, err := strconv.Atoi(a[1])
			if err != nil {
				return fmt.Errorf("bad size: %s", a[1])
			}
			v, err := bs.Create("sandbox", a[0], size)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s available (%d GB)\n", v.ID, v.SizeGB)
			return nil
		}},
		{"attach", "<volume-id> <instance-id>", 2, 2, func(a []string) error {
			return done(bs.Attach(a[0], a[1]), "attached\n")
		}},
		{"reserve", "<start> <end>", 2, 2, func(a []string) error {
			start, err1 := strconv.ParseFloat(a[0], 64)
			end, err2 := strconv.ParseFloat(a[1], 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad window: %s %s", a[0], a[1])
			}
			r, err := ls.Book(lease.Spec{Project: "sandbox", User: "operator",
				NodeType: cloud.GPUA100PCIe.Name, Start: start, End: end})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s on %s [%.1f, %.1f) — advance past %.1f to activate\n",
				r.ID, r.Node, r.Start, r.End, r.Start)
			return nil
		}},
		{"sched", "<fifo|backfill|fairshare|preemptive> <jobs> <gpus>", 3, 3, func(a []string) error {
			njobs, ok := parseCount(a[1])
			gpus, err := strconv.Atoi(a[2])
			if !ok || err != nil || gpus < 1 {
				return fmt.Errorf("bad jobs/gpus: %s %s", a[1], a[2])
			}
			wl := sched.GenerateTrace(sched.DefaultTrace(njobs), stats.NewRNG(7))
			// The default trace draws gangs up to 16 GPUs; clamp to the
			// cluster named on the command line so any size works.
			for _, j := range wl {
				if j.GPUs > gpus {
					j.GPUs = gpus
				}
			}
			if a[0] == "preemptive" {
				// Promote every fourth job so evictions actually happen.
				for i, j := range wl {
					if i%4 == 0 {
						j.Weight = 5
					}
				}
				res, err := sched.RunPreemptive(wl, gpus)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%d jobs, makespan %.1fh, %d preemptions, avg wait %.2fh\n",
					len(res.Assignments), res.Makespan, res.TotalPreemptions, res.AvgWait)
				return nil
			}
			root := tracer.StartTrace("api.sched " + a[0])
			res, err := sched.RunTraced(a[0], wl, gpus, root)
			if err != nil {
				root.Finish()
				return err
			}
			// The schedule runs on its own virtual axis anchored at the
			// root's start; close the root at the makespan.
			root.FinishAt(root.StartTime() + res.Makespan)
			fmt.Fprintf(out, "%d jobs, makespan %.1fh, avg wait %.2fh, utilization %.0f%%\n",
				len(res.Assignments), res.Makespan, res.AvgWait, 100*res.Utilization)
			return nil
		}},
		{"batch", "<n>", 1, 1, func(a []string) error {
			n, ok := parseCount(a[0])
			if !ok {
				return fmt.Errorf("bad count: %s", a[0])
			}
			b := serve.NewBatcher(8, 2*time.Millisecond, 2, func(in [][]float64) ([][]float64, error) {
				return in, nil
			})
			b.SetTelemetry(bus)
			b.SetLogging(logger)
			root := tracer.StartTrace("api.batch",
				telemetry.Int("requests", n))
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _ = b.SubmitTraced([]float64{float64(i)}, root)
				}(i)
			}
			wg.Wait()
			b.Close()
			root.Finish()
			batches, requests, mean := b.Stats()
			fmt.Fprintf(out, "%d requests in %d batches (mean batch %.1f)\n", requests, batches, mean)
			return nil
		}},
		{"advance", "<hours>", 1, 1, func(a []string) error {
			h, ok := parseAdvanceHours(a[0])
			if !ok {
				return fmt.Errorf("bad hours: %s", a[0])
			}
			clk.RunUntil(clk.Now() + h)
			fmt.Fprintf(out, "virtual time is now %.1fh\n", clk.Now())
			return nil
		}},
		{"hosts", "", 0, 0, func([]string) error {
			for _, h := range cl.Hosts() {
				state := "up"
				if h.Down {
					state = "DOWN"
				}
				fmt.Fprintf(out, "%-20s %-12s %-6s %2d vCPU %4d GB\n", h.Name, h.NodeType, state, h.VCPUs, h.RAMGB)
			}
			return nil
		}},
		{"fail", "<host>", 1, 1, func(a []string) error {
			return done(cl.FailHost(a[0]), "%s is down; its instances are in error and stopped metering\n", a[0])
		}},
		{"recover", "<host>", 1, 1, func(a []string) error {
			return done(cl.RecoverHost(a[0]), "%s is back; it accepts placements again\n", a[0])
		}},
		{"resilience", "", 0, 0, func([]string) error { return show(report.ResilienceSummary(bus)) }},
		{"usage", "", 0, 0, func([]string) error {
			return printLines(out, usageLines(cl.Meter().HoursByResource(clk.Now(), cloud.UsageInstance, nil)))
		}},
		{"quota", "", 0, 0, func([]string) error {
			p, err := cl.GetProject("sandbox")
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "instances %d/%d  cores %d/%d  ram %d/%d GB  fips %d/%d\n",
				p.Usage.Instances, p.Quota.Instances, p.Usage.Cores, p.Quota.Cores,
				p.Usage.RAMGB, p.Quota.RAMGB, p.Usage.FloatingIPs, p.Quota.FloatingIPs)
			return nil
		}},
		{"metrics", "[-json]", 0, 1, func(a []string) error {
			if len(a) == 0 {
				return show(report.Metrics(bus.Snapshot()))
			}
			if a[0] != "-json" {
				return errUsage
			}
			s, err := report.MetricsJSON(bus.Snapshot())
			if err != nil {
				return err
			}
			return show(s)
		}},
		{"logs", "[n] [-component c] [-level l] [-trace id] [-since t]", 0, -1, func(a []string) error {
			n, component, level, tracePrefix, since, bad := parseLogsArgs(a)
			if bad != "" {
				return errors.New(bad)
			}
			recs := logging.Filter(logger.Records(0), component, level, tracePrefix, since)
			if len(recs) > n {
				recs = recs[len(recs)-n:]
			}
			if len(recs) == 0 {
				return show("no log records match\n")
			}
			return show(logging.Render(recs))
		}},
		{"incidents list", "", 0, 0, func([]string) error { return show(report.IncidentList(rec.Incidents())) }},
		{"incidents show", "<id>", 1, 1, func(a []string) error {
			_, rendered, err := incident(a[0])
			if err != nil {
				return err
			}
			return show(rendered)
		}},
		{"incidents export", "<id> <file>", 2, 2, func(a []string) error {
			id, rendered, err := incident(a[0])
			if err != nil {
				return err
			}
			return done(os.WriteFile(a[1], []byte(rendered), 0o644),
				"wrote incident #%d (%d bytes) to %s\n", id, len(rendered), a[1])
		}},
		{"query", "<promql-lite expression>", 1, -1, func(a []string) error {
			v, err := db.Query(strings.Join(a, " "), clk.Now())
			if err != nil {
				return err
			}
			return show(tsdb.FormatValue(v))
		}},
		{"alerts", "", 0, 0, func([]string) error {
			fmt.Fprint(out, report.Alerts(eng.Active(), eng.Timeline()))
			if errs := eng.Errors(); len(errs) > 0 {
				fmt.Fprintln(out, "rule errors:")
				for _, e := range errs {
					fmt.Fprintln(out, " ", e)
				}
			}
			return nil
		}},
		{"slo", "", 0, 0, func([]string) error { return show(report.SLOSummary(eng.Statuses(clk.Now()))) }},
		{"dashboard", "", 0, 0, func([]string) error { return show(report.Dashboard(db, eng, clk.Now())) }},
		{"tsdb stats", "", 0, 0, func([]string) error {
			scrapes, samples := coll.Stats()
			return printLines(out, tsdbStatsLines(scrapes, samples, db.SeriesCount(),
				db.Dropped(), coll.Interner().Len(), coll.LastScrapeDuration()))
		}},
		{"trace list", "", 0, 0, func([]string) error { return show(report.TraceSummary(tracer, 0)) }},
		{"trace show", "<query>", 1, 1, func(a []string) error {
			td, ok := tracer.Find(a[0])
			if !ok {
				return fmt.Errorf("no trace matches %q", a[0])
			}
			return show(trace.Tree(td))
		}},
		{"trace critical", "[query]", 0, 1, func(a []string) error {
			var td trace.TraceData
			var ok bool
			if len(a) == 1 {
				td, ok = tracer.Find(a[0])
			} else {
				td, ok = tracer.Longest()
			}
			if !ok {
				return show("no traces recorded yet\n")
			}
			return show(trace.RenderCriticalPath(td))
		}},
		{"trace cost", "", 0, 0, func([]string) error {
			recs := cl.Meter().Records(func(*cloud.UsageRecord) bool { return true })
			rows := report.CostByTrace(recs, clk.Now(), report.TraceRate(cost.AWS), tracer)
			if len(rows) == 0 {
				return show("no metered usage yet\n")
			}
			return show(report.TraceCostTable(rows))
		}},
		{"trace export", "<file>", 1, 1, func(a []string) error {
			data := trace.Chrome(tracer.Traces())
			return done(os.WriteFile(a[0], data, 0o644),
				"wrote %d bytes (%d traces) — open in Perfetto / chrome://tracing\n", len(data), tracer.Len())
		}},
		{"spot prices", "[-json]", 0, 1, func(a []string) error {
			if len(a) == 0 {
				return printLines(out, spotPriceLines(market.Pools()))
			}
			if a[0] != "-json" {
				return errUsage
			}
			return printJSON(out, market.Pools())
		}},
		{"spot preemptions", "[-json]", 0, 1, func(a []string) error {
			preempts, reclaims, vacated := market.Stats()
			if len(a) == 0 {
				return printLines(out, spotNoticeLines(market.Notices(), preempts, reclaims, vacated))
			}
			if a[0] != "-json" {
				return errUsage
			}
			return printJSON(out, struct {
				Preemptions int64              `json:"preemptions"`
				Reclaims    int64              `json:"reclaims"`
				Vacated     int64              `json:"vacated"`
				Notices     []cloud.SpotNotice `json:"notices"`
			}{preempts, reclaims, vacated, market.Notices()})
		}},
		{"spot preempt", "<pool>", 1, 1, func(a []string) error {
			if err := market.Preempt(a[0]); err != nil {
				return err
			}
			free, _ := market.FreeCapacity(a[0])
			fmt.Fprintf(out, "pool %s preempted; free capacity now %d\n", a[0], free)
			return nil
		}},
		{"help", "", 0, 0, func([]string) error {
			for _, c := range cmds {
				if _, err := fmt.Fprintln(out, c); err != nil {
					return err
				}
			}
			return nil
		}},
		{"quit", "", 0, -1, func([]string) error { return errQuit }},
		{"exit", "", 0, -1, func([]string) error { return errQuit }},
	}

	return func(line string) bool {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return false
		}
		c, args, reply := lookup(cmds, fields)
		if c == nil {
			fmt.Fprintln(out, reply)
			return false
		}
		err := errUsage
		if len(args) >= c.min && (c.max < 0 || len(args) <= c.max) {
			err = c.run(args)
		}
		switch {
		case errors.Is(err, errQuit):
			return true
		case errors.Is(err, errUsage):
			fmt.Fprintln(out, "usage:", c)
		case err != nil:
			fmt.Fprintln(out, err)
		}
		return false
	}
}

// lookup finds the table entry a command line names and its arguments.
// When none matches, it returns the reply to print instead: the group's
// synopses for a group word alone, or an unknown-command message.
func lookup(cmds []command, fields []string) (*command, []string, string) {
	var group []string
	for i := range cmds {
		word, sub, isSub := strings.Cut(cmds[i].name, " ")
		switch {
		case word != fields[0]:
			continue
		case !isSub:
			return &cmds[i], fields[1:], ""
		case len(fields) > 1 && sub == fields[1]:
			return &cmds[i], fields[2:], ""
		}
		group = append(group, strings.TrimPrefix(cmds[i].String(), word+" "))
	}
	switch {
	case group == nil:
		return nil, nil, fmt.Sprintf("unknown command %q (try 'help')", fields[0])
	case len(fields) == 1:
		return nil, nil, "usage: " + fields[0] + " " + strings.Join(group, " | ")
	}
	return nil, nil, fmt.Sprintf("unknown %s subcommand %q", fields[0], fields[1])
}

// printJSON writes v as indented JSON and a newline.
func printJSON(out io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// printLines writes each line and a newline.
func printLines(out io.Writer, lines []string) error {
	for _, l := range lines {
		if _, err := fmt.Fprintln(out, l); err != nil {
			return err
		}
	}
	return nil
}

// maxAdvanceHours caps one `advance` at a simulated year. Every hour
// costs four scrapes, so two one-year advances already reach ~55 MB.
const maxAdvanceHours = 8760

// parseAdvanceHours parses the `advance` argument. It rejects NaN, which
// would not move the clock, infinities and anything above
// maxAdvanceHours, which would never return or exhaust memory, and
// negatives.
func parseAdvanceHours(arg string) (float64, bool) {
	h, err := strconv.ParseFloat(arg, 64)
	if err != nil || !(h >= 0 && h <= maxAdvanceHours) {
		return 0, false
	}
	return h, true
}

// maxCount bounds the `sched` job count and the `batch` request count.
// Each job or request costs memory, and each `batch` request a
// goroutine: at 100,000, `sched fifo` takes ~0.4 s and `batch` ~1 s on a
// 2-vCPU host, while 200,000,000 jobs or 20,000,000 requests run out of
// memory.
const maxCount = 100_000

// parseCount parses a `sched` job count or a `batch` request count: a
// positive integer no larger than maxCount.
func parseCount(arg string) (int, bool) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 || n > maxCount {
		return 0, false
	}
	return n, true
}

// parseLogsArgs parses the `logs` command's arguments: an optional
// positional count plus -component, -level, -trace, and -since flags.
// A non-empty bad string is the usage error to print.
func parseLogsArgs(args []string) (n int, component string, level logging.Level, tracePrefix string, since float64, bad string) {
	n, level, since = 20, logging.LevelInfo, -1
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-component":
			if i+1 >= len(args) {
				return 0, "", 0, "", 0, "usage: -component <name>"
			}
			i++
			component = args[i]
		case "-level":
			if i+1 >= len(args) {
				return 0, "", 0, "", 0, "usage: -level <info|warn|error>"
			}
			i++
			lv, ok := logging.ParseLevel(args[i])
			if !ok {
				return 0, "", 0, "", 0, "bad level: " + args[i]
			}
			level = lv
		case "-trace":
			if i+1 >= len(args) {
				return 0, "", 0, "", 0, "usage: -trace <id-or-prefix>"
			}
			i++
			tracePrefix = args[i]
		case "-since":
			if i+1 >= len(args) {
				return 0, "", 0, "", 0, "usage: -since <sim-hours>"
			}
			i++
			// NaN fails Filter's since >= 0 check, which would
			// list every record.
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || math.IsNaN(v) {
				return 0, "", 0, "", 0, "bad time: " + args[i]
			}
			since = v
		default:
			v, err := strconv.Atoi(args[i])
			if err != nil || v < 1 {
				return 0, "", 0, "", 0, "bad count: " + args[i]
			}
			n = v
		}
	}
	return n, component, level, tracePrefix, since, ""
}

// spotPriceLines renders the spot pool table: pool, occupancy, the
// current spot price and the on-demand reference. Pools() is already
// sorted, so repeated commands print identical bytes.
func spotPriceLines(pools []cloud.SpotPoolView) []string {
	if len(pools) == 0 {
		return []string{"no spot pools configured"}
	}
	lines := make([]string, 0, len(pools))
	for _, p := range pools {
		pct := 0.0
		if p.OnDemandPerHour > 0 {
			pct = 100 * p.SpotPerHour / p.OnDemandPerHour
		}
		lines = append(lines, fmt.Sprintf("%-16s %d/%d used  spot $%.2f/h  on-demand $%.2f/h  (%.0f%%)",
			p.Pool, p.Active, p.Capacity, p.SpotPerHour, p.OnDemandPerHour, pct))
	}
	return lines
}

// spotNoticeLines renders the preemption ledger: the market's counters
// and every notice issued so far, in issue order.
func spotNoticeLines(notices []cloud.SpotNotice, preempts, reclaims, vacated int64) []string {
	lines := []string{fmt.Sprintf("preemptions %d  vacated in time %d  reclaimed running %d",
		preempts, vacated, reclaims)}
	for _, n := range notices {
		lines = append(lines, fmt.Sprintf("  %s pool %s  noticed t=%.4f  reclaim t=%.4f",
			n.InstanceID, n.Pool, n.NoticedAt, n.ReclaimAt))
	}
	return lines
}

// tsdbStatsLines renders the monitoring pipeline's self-observation:
// the deterministic scrape counters plus the one measurement that is
// deliberately kept out of cmp-gated reports — the wall-clock cost of
// the most recent scrape.
func tsdbStatsLines(scrapes, samples int64, series int, dropped int64,
	interned int, lastDur time.Duration) []string {
	return []string{
		fmt.Sprintf("scrapes              %d", scrapes),
		fmt.Sprintf("samples ingested     %d", samples),
		fmt.Sprintf("live series          %d", series),
		fmt.Sprintf("dropped samples      %d", dropped),
		fmt.Sprintf("interned label sets  %d", interned),
		fmt.Sprintf("last scrape          %s", lastDur),
	}
}

// usageLines renders per-flavor instance-hour totals in sorted flavor
// order, so repeated `usage` commands print identical bytes for
// identical meter state (map iteration order must not leak into output).
func usageLines(hoursByFlavor map[string]float64) []string {
	flavors := make([]string, 0, len(hoursByFlavor))
	for f := range hoursByFlavor {
		flavors = append(flavors, f)
	}
	sort.Strings(flavors)
	lines := make([]string, 0, len(flavors))
	for _, f := range flavors {
		lines = append(lines, fmt.Sprintf("%-16s %.1f instance-hours", f, hoursByFlavor[f]))
	}
	return lines
}

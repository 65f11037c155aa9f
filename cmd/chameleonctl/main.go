// Command chameleonctl drives the IaaS simulator interactively, mirroring
// the OpenStack CLI workflow from the Unit-2 lab ("ClickOps" → CLI).
// Commands are read from stdin, one per line:
//
//	launch <name> <flavor>          provision an instance
//	delete <id>                     terminate an instance
//	list                            list instances
//	fip <instance-id>               allocate + associate a floating IP
//	volume <name> <sizeGB>          create a block-storage volume
//	attach <volume-id> <inst-id>    attach a volume
//	reserve <start> <end>           book a GPU node lease for [start, end)
//	sched <policy> <jobs> <gpus>    run a synthetic scheduling trace
//	batch <n>                       push n requests through a dynamic batcher
//	advance <hours>                 advance virtual time
//	hosts                           list hypervisors/bare-metal hosts and state
//	fail <host>                     crash a host (instances on it error out)
//	recover <host>                  bring a failed host back
//	resilience                      show the fault-injection scorecard
//	usage                           show metered hours by flavor
//	quota                           show project quota usage
//	metrics [-json]                 show telemetry counters/gauges/histograms
//	logs [n] [-component c] [-level l] [-trace id] [-since t]
//	                                show the n most recent log records
//	                                (default 20) from the structured-log
//	                                ring buffers, optionally filtered to a
//	                                component name, a minimum level, a
//	                                trace-ID prefix, and a minimum sim time
//	incidents list                  list flight-recorder incident bundles
//	incidents show <id>             print one bundle (rule, dashboard,
//	                                series, logs, traces, faults, spot)
//	incidents export <id> <file>    write the rendered bundle to a file
//	query <expr>                    evaluate a PromQL-lite expression against
//	                                the metrics TSDB at the current sim time
//	alerts                          show active alerts and the firing timeline
//	slo                             show the error-budget scorecard
//	dashboard                       fixed-layout text dashboard (capacity,
//	                                queues, latency quantiles, burn rate)
//	trace list                      list recorded traces (longest first)
//	trace show <query>              print one trace's span tree
//	trace critical [query]          critical path with per-span self-times
//	                                (default: the longest trace)
//	trace cost                      per-trace cost attribution vs the meter
//	trace export <file>             write Chrome trace-event JSON (Perfetto)
//	tsdb stats                      monitoring-pipeline self-metrics (scrape
//	                                counters, series, interned label sets,
//	                                wall-clock scrape cost)
//	spot prices [-json]             spot pool occupancy and current prices
//	spot preemptions [-json]        preemption notices and the vacate ledger
//	spot preempt <pool>             reclaim one slot from a spot pool
//	help / quit
//
// API commands run under a trace: launch, reserve, sched and batch each
// record a span tree (placement/boot, queue wait, retries, batching)
// inspectable with the trace subcommands afterwards.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
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

	fmt.Println("chameleonctl — OpenStack-style CLI over the cloud simulator (type 'help')")
	sc := bufio.NewScanner(os.Stdin)
	prompt := func() { fmt.Print("openstack> ") }
	prompt()
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			prompt()
			continue
		}
		switch cmd := fields[0]; cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("launch <name> <flavor> | delete <id> | list | fip <inst-id> |")
			fmt.Println("volume <name> <GB> | attach <vol-id> <inst-id> |")
			fmt.Println("reserve <start> <end> | sched <policy> <jobs> <gpus> | batch <n> |")
			fmt.Println("hosts | fail <host> | recover <host> | resilience |")
			fmt.Println("advance <hours> | usage | quota | metrics [-json] | quit |")
			fmt.Println("logs [n] [-component c] [-level l] [-trace id] [-since t] |")
			fmt.Println("incidents list | incidents show <id> | incidents export <id> <file> |")
			fmt.Println("query <expr> | alerts | slo | dashboard | tsdb stats |")
			fmt.Println("spot prices [-json] | spot preemptions [-json] | spot preempt <pool> |")
			fmt.Println("trace list | trace show <query> | trace critical [query] |")
			fmt.Println("trace cost | trace export <file>")
		case "launch":
			if len(fields) != 3 {
				fmt.Println("usage: launch <name> <flavor>")
				break
			}
			flavor, err := cloud.FlavorByName(fields[2])
			if err != nil {
				fmt.Println(err)
				break
			}
			root := tracer.StartTrace("api.launch "+fields[1],
				telemetry.String("flavor", flavor.Name))
			inst, err := cl.Launch(cloud.LaunchSpec{Project: "sandbox", Name: fields[1],
				Flavor: flavor, Span: root})
			if err != nil {
				root.Annotate(telemetry.String("error", err.Error()))
				root.Finish()
				fmt.Println(err)
				break
			}
			root.Finish()
			fmt.Printf("%s ACTIVE on %s\n", inst.ID, inst.Host)
		case "delete":
			if len(fields) != 2 {
				fmt.Println("usage: delete <id>")
				break
			}
			if err := cl.Delete(fields[1]); err != nil {
				fmt.Println(err)
			} else {
				fmt.Println("deleted")
			}
		case "list":
			for _, inst := range cl.List(nil) {
				fmt.Printf("%-14s %-16s %-14s %-8s fip=%-15s %.1fh\n",
					inst.ID, inst.Name, inst.Flavor.Name, inst.State, inst.FloatingIP, inst.HoursAt(clk.Now()))
			}
		case "fip":
			if len(fields) != 2 {
				fmt.Println("usage: fip <instance-id>")
				break
			}
			fip, err := cl.AllocateFloatingIP("sandbox", nil)
			if err != nil {
				fmt.Println(err)
				break
			}
			if err := cl.AssociateFloatingIP(fip.ID, fields[1]); err != nil {
				fmt.Println(err)
				break
			}
			fmt.Printf("associated %s\n", fip.Address)
		case "volume":
			if len(fields) != 3 {
				fmt.Println("usage: volume <name> <sizeGB>")
				break
			}
			size, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("bad size:", fields[2])
				break
			}
			v, err := bs.Create("sandbox", fields[1], size)
			if err != nil {
				fmt.Println(err)
				break
			}
			fmt.Printf("%s available (%d GB)\n", v.ID, v.SizeGB)
		case "attach":
			if len(fields) != 3 {
				fmt.Println("usage: attach <volume-id> <instance-id>")
				break
			}
			if err := bs.Attach(fields[1], fields[2]); err != nil {
				fmt.Println(err)
			} else {
				fmt.Println("attached")
			}
		case "advance":
			if len(fields) != 2 {
				fmt.Println("usage: advance <hours>")
				break
			}
			h, ok := parseAdvanceHours(fields[1])
			if !ok {
				fmt.Println("bad hours:", fields[1])
				break
			}
			clk.RunUntil(clk.Now() + h)
			fmt.Printf("virtual time is now %.1fh\n", clk.Now())
		case "usage":
			for _, line := range usageLines(cl.Meter().HoursByResource(clk.Now(), cloud.UsageInstance, nil)) {
				fmt.Println(line)
			}
		case "reserve":
			if len(fields) != 3 {
				fmt.Println("usage: reserve <start> <end>")
				break
			}
			start, err1 := strconv.ParseFloat(fields[1], 64)
			end, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				fmt.Println("bad window:", fields[1], fields[2])
				break
			}
			r, err := ls.Book(lease.Spec{Project: "sandbox", User: "operator",
				NodeType: cloud.GPUA100PCIe.Name, Start: start, End: end})
			if err != nil {
				fmt.Println(err)
				break
			}
			fmt.Printf("%s on %s [%.1f, %.1f) — advance past %.1f to activate\n",
				r.ID, r.Node, r.Start, r.End, r.Start)
		case "sched":
			if len(fields) != 4 {
				fmt.Println("usage: sched <fifo|backfill|fairshare|preemptive> <jobs> <gpus>")
				break
			}
			njobs, ok := parseCount(fields[2])
			gpus, err := strconv.Atoi(fields[3])
			if !ok || err != nil || gpus < 1 {
				fmt.Println("bad jobs/gpus:", fields[2], fields[3])
				break
			}
			wl := sched.GenerateTrace(sched.DefaultTrace(njobs), stats.NewRNG(7))
			// The default trace draws gangs up to 16 GPUs; clamp to the
			// cluster named on the command line so any size works.
			for _, j := range wl {
				if j.GPUs > gpus {
					j.GPUs = gpus
				}
			}
			if fields[1] == "preemptive" {
				// Promote every fourth job so evictions actually happen.
				for i, j := range wl {
					if i%4 == 0 {
						j.Weight = 5
					}
				}
				res, err := sched.RunPreemptive(wl, gpus)
				if err != nil {
					fmt.Println(err)
					break
				}
				fmt.Printf("%d jobs, makespan %.1fh, %d preemptions, avg wait %.2fh\n",
					len(res.Assignments), res.Makespan, res.TotalPreemptions, res.AvgWait)
				break
			}
			root := tracer.StartTrace("api.sched " + fields[1])
			res, err := sched.RunTraced(fields[1], wl, gpus, root)
			if err != nil {
				root.Finish()
				fmt.Println(err)
				break
			}
			// The schedule runs on its own virtual axis anchored at the
			// root's start; close the root at the makespan.
			root.FinishAt(root.StartTime() + res.Makespan)
			fmt.Printf("%d jobs, makespan %.1fh, avg wait %.2fh, utilization %.0f%%\n",
				len(res.Assignments), res.Makespan, res.AvgWait, 100*res.Utilization)
		case "batch":
			if len(fields) != 2 {
				fmt.Println("usage: batch <n>")
				break
			}
			n, ok := parseCount(fields[1])
			if !ok {
				fmt.Println("bad count:", fields[1])
				break
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
			fmt.Printf("%d requests in %d batches (mean batch %.1f)\n", requests, batches, mean)
		case "hosts":
			for _, h := range cl.Hosts() {
				state := "up"
				if h.Down {
					state = "DOWN"
				}
				fmt.Printf("%-20s %-12s %-6s %2d vCPU %4d GB\n", h.Name, h.NodeType, state, h.VCPUs, h.RAMGB)
			}
		case "fail":
			if len(fields) != 2 {
				fmt.Println("usage: fail <host>")
				break
			}
			if err := cl.FailHost(fields[1]); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("%s is down; its instances are in error and stopped metering\n", fields[1])
			}
		case "recover":
			if len(fields) != 2 {
				fmt.Println("usage: recover <host>")
				break
			}
			if err := cl.RecoverHost(fields[1]); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("%s is back; it accepts placements again\n", fields[1])
			}
		case "resilience":
			fmt.Print(report.ResilienceSummary(bus))
		case "metrics":
			if len(fields) == 2 && fields[1] == "-json" {
				out, err := report.MetricsJSON(bus.Snapshot())
				if err != nil {
					fmt.Println(err)
					break
				}
				fmt.Print(out)
				break
			}
			fmt.Print(report.Metrics(bus.Snapshot()))
		case "query":
			if len(fields) < 2 {
				fmt.Println("usage: query <promql-lite expression>")
				break
			}
			v, err := db.Query(strings.Join(fields[1:], " "), clk.Now())
			if err != nil {
				fmt.Println(err)
				break
			}
			fmt.Print(tsdb.FormatValue(v))
		case "alerts":
			fmt.Print(report.Alerts(eng.Active(), eng.Timeline()))
			if errs := eng.Errors(); len(errs) > 0 {
				fmt.Println("rule errors:")
				for _, e := range errs {
					fmt.Println(" ", e)
				}
			}
		case "slo":
			fmt.Print(report.SLOSummary(eng.Statuses(clk.Now())))
		case "dashboard":
			fmt.Print(report.Dashboard(db, eng, clk.Now()))
		case "tsdb":
			if len(fields) != 2 || fields[1] != "stats" {
				fmt.Println("usage: tsdb stats")
				break
			}
			scrapes, samples := coll.Stats()
			for _, line := range tsdbStatsLines(scrapes, samples, db.SeriesCount(),
				db.Dropped(), coll.Interner().Len(), coll.LastScrapeDuration()) {
				fmt.Println(line)
			}
		case "logs":
			n, component, level, tracePrefix, since, bad := parseLogsArgs(fields[1:])
			if bad != "" {
				fmt.Println(bad)
				break
			}
			recs := logging.Filter(logger.Records(0), component, level, tracePrefix, since)
			if len(recs) > n {
				recs = recs[len(recs)-n:]
			}
			if len(recs) == 0 {
				fmt.Println("no log records match")
				break
			}
			fmt.Print(logging.Render(recs))
		case "incidents":
			if len(fields) < 2 {
				fmt.Println("usage: incidents list | show <id> | export <id> <file>")
				break
			}
			switch fields[1] {
			case "list":
				fmt.Print(report.IncidentList(rec.Incidents()))
			case "show", "export":
				if (fields[1] == "show" && len(fields) != 3) || (fields[1] == "export" && len(fields) != 4) {
					fmt.Println("usage: incidents show <id> | export <id> <file>")
					break
				}
				id, err := strconv.Atoi(fields[2])
				if err != nil {
					fmt.Println("bad incident id:", fields[2])
					break
				}
				inc, ok := rec.Incident(id)
				if !ok {
					fmt.Printf("no incident #%d (try 'incidents list')\n", id)
					break
				}
				rendered := report.Incident(inc)
				if fields[1] == "show" {
					fmt.Print(rendered)
					break
				}
				if err := os.WriteFile(fields[3], []byte(rendered), 0o644); err != nil {
					fmt.Println(err)
					break
				}
				fmt.Printf("wrote incident #%d (%d bytes) to %s\n", id, len(rendered), fields[3])
			default:
				fmt.Printf("unknown incidents subcommand %q\n", fields[1])
			}
		case "trace":
			if len(fields) < 2 {
				fmt.Println("usage: trace list | show <query> | critical [query] | cost | export <file>")
				break
			}
			switch fields[1] {
			case "list":
				fmt.Print(report.TraceSummary(tracer, 0))
			case "show":
				if len(fields) != 3 {
					fmt.Println("usage: trace show <name-or-id-prefix>")
					break
				}
				td, ok := tracer.Find(fields[2])
				if !ok {
					fmt.Printf("no trace matches %q\n", fields[2])
					break
				}
				fmt.Print(trace.Tree(td))
			case "critical":
				var td trace.TraceData
				var ok bool
				if len(fields) == 3 {
					td, ok = tracer.Find(fields[2])
				} else {
					td, ok = tracer.Longest()
				}
				if !ok {
					fmt.Println("no traces recorded yet")
					break
				}
				fmt.Print(trace.RenderCriticalPath(td))
			case "cost":
				recs := cl.Meter().Records(func(*cloud.UsageRecord) bool { return true })
				rows := report.CostByTrace(recs, clk.Now(), report.TraceRate(cost.AWS), tracer)
				if len(rows) == 0 {
					fmt.Println("no metered usage yet")
					break
				}
				fmt.Print(report.TraceCostTable(rows))
			case "export":
				if len(fields) != 3 {
					fmt.Println("usage: trace export <file.json>")
					break
				}
				data := trace.Chrome(tracer.Traces())
				if err := os.WriteFile(fields[2], data, 0o644); err != nil {
					fmt.Println(err)
					break
				}
				fmt.Printf("wrote %d bytes (%d traces) — open in Perfetto / chrome://tracing\n",
					len(data), tracer.Len())
			default:
				fmt.Printf("unknown trace subcommand %q\n", fields[1])
			}
		case "spot":
			if len(fields) < 2 {
				fmt.Println("usage: spot prices [-json] | preemptions [-json] | preempt <pool>")
				break
			}
			asJSON := len(fields) == 3 && fields[2] == "-json"
			if len(fields) > 3 || (len(fields) == 3 && !asJSON && fields[1] != "preempt") {
				fmt.Println("usage: spot prices [-json] | preemptions [-json] | preempt <pool>")
				break
			}
			switch fields[1] {
			case "prices":
				if asJSON {
					out, err := json.MarshalIndent(market.Pools(), "", "  ")
					if err != nil {
						fmt.Println(err)
						break
					}
					fmt.Println(string(out))
					break
				}
				for _, line := range spotPriceLines(market.Pools()) {
					fmt.Println(line)
				}
			case "preemptions":
				preempts, reclaims, vacated := market.Stats()
				if asJSON {
					out, err := json.MarshalIndent(struct {
						Preemptions int64              `json:"preemptions"`
						Reclaims    int64              `json:"reclaims"`
						Vacated     int64              `json:"vacated"`
						Notices     []cloud.SpotNotice `json:"notices"`
					}{preempts, reclaims, vacated, market.Notices()}, "", "  ")
					if err != nil {
						fmt.Println(err)
						break
					}
					fmt.Println(string(out))
					break
				}
				for _, line := range spotNoticeLines(market.Notices(), preempts, reclaims, vacated) {
					fmt.Println(line)
				}
			case "preempt":
				if len(fields) != 3 {
					fmt.Println("usage: spot preempt <pool>")
					break
				}
				if err := market.Preempt(fields[2]); err != nil {
					fmt.Println(err)
					break
				}
				free, _ := market.FreeCapacity(fields[2])
				fmt.Printf("pool %s preempted; free capacity now %d\n", fields[2], free)
			default:
				fmt.Printf("unknown spot subcommand %q\n", fields[1])
			}
		case "quota":
			p, err := cl.GetProject("sandbox")
			if err != nil {
				fmt.Println(err)
				break
			}
			fmt.Printf("instances %d/%d  cores %d/%d  ram %d/%d GB  fips %d/%d\n",
				p.Usage.Instances, p.Quota.Instances, p.Usage.Cores, p.Quota.Cores,
				p.Usage.RAMGB, p.Quota.RAMGB, p.Usage.FloatingIPs, p.Quota.FloatingIPs)
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
		prompt()
	}
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
	n, level, since = 20, logging.LevelDebug, -1
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
				return 0, "", 0, "", 0, "usage: -level <debug|info|warn|error>"
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

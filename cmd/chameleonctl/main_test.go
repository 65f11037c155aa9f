package main

import (
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/logging"
)

// Regression test for the maprange lint finding in the `usage` command:
// it used to print meter totals in map iteration order, so repeated
// identical commands could print identically-valued lines in different
// orders. usageLines must render sorted, stable bytes.
func TestUsageLinesSortedAndStable(t *testing.T) {
	m := map[string]float64{
		"m1.large":        12.5,
		"gpu_a100_pcie":   3.25,
		"m1.small":        0.1,
		"m1.xlarge":       100,
		"compute_skylake": 7,
	}
	want := []string{
		"compute_skylake  7.0 instance-hours",
		"gpu_a100_pcie    3.2 instance-hours",
		"m1.large         12.5 instance-hours",
		"m1.small         0.1 instance-hours",
		"m1.xlarge        100.0 instance-hours",
	}
	for i := 0; i < 50; i++ {
		got := usageLines(m)
		if !sort.StringsAreSorted(got) {
			t.Fatalf("usage lines not sorted: %q", got)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("usage lines = %q, want %q", got, want)
		}
	}
	if len(usageLines(nil)) != 0 {
		t.Fatal("empty meter should render no lines")
	}
}

// The `spot prices` table must render stable bytes for stable market
// state and degrade gracefully when no pools exist.
func TestSpotPriceLines(t *testing.T) {
	pools := []cloud.SpotPoolView{
		{Pool: "compute_liqid", Capacity: 2, Active: 1, SpotPerHour: 0.40, OnDemandPerHour: 1.212},
		{Pool: "gpu_a100_pcie", Capacity: 2, Active: 0, SpotPerHour: 1.19, OnDemandPerHour: 3.307},
	}
	want := []string{
		"compute_liqid    1/2 used  spot $0.40/h  on-demand $1.21/h  (33%)",
		"gpu_a100_pcie    0/2 used  spot $1.19/h  on-demand $3.31/h  (36%)",
	}
	for i := 0; i < 10; i++ {
		got := spotPriceLines(pools)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("price lines = %q, want %q", got, want)
		}
	}
	if got := spotPriceLines(nil); len(got) != 1 || got[0] != "no spot pools configured" {
		t.Fatalf("empty market lines = %q", got)
	}
}

// The preemption ledger leads with the counters and lists notices in
// issue order.
func TestSpotNoticeLines(t *testing.T) {
	notices := []cloud.SpotNotice{
		{Pool: "compute_liqid", InstanceID: "i-000003", NoticedAt: 0.75, ReclaimAt: 0.75 + 2.0/60},
	}
	got := spotNoticeLines(notices, 1, 0, 1)
	want := []string{
		"preemptions 1  vacated in time 1  reclaimed running 0",
		"  i-000003 pool compute_liqid  noticed t=0.7500  reclaim t=0.7833",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("notice lines = %q, want %q", got, want)
	}
	if got := spotNoticeLines(nil, 0, 0, 0); len(got) != 1 {
		t.Fatalf("empty ledger = %q, want counters line only", got)
	}
}

// `tsdb stats` must render stable bytes for stable pipeline state; the
// nondeterministic measurement (scrape duration) is a plain formatted
// value, never recomputed inside the renderer.
func TestTsdbStatsLines(t *testing.T) {
	got := tsdbStatsLines(8, 392, 47, 0, 12, 153*time.Microsecond)
	want := []string{
		"scrapes              8",
		"samples ingested     392",
		"live series          47",
		"dropped samples      0",
		"interned label sets  12",
		"last scrape          153µs",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stats lines = %q, want %q", got, want)
	}
	for i := 0; i < 10; i++ {
		if again := tsdbStatsLines(8, 392, 47, 0, 12, 153*time.Microsecond); strings.Join(again, "\n") != strings.Join(want, "\n") {
			t.Fatalf("stats lines unstable: %q", again)
		}
	}
}

func TestParseLogsArgs(t *testing.T) {
	n, comp, level, tr, since, bad := parseLogsArgs(nil)
	if bad != "" || n != 20 || comp != "" || level != logging.LevelInfo || tr != "" || since != -1 {
		t.Fatalf("defaults = (%d,%q,%v,%q,%g,%q)", n, comp, level, tr, since, bad)
	}
	n, comp, level, tr, since, bad = parseLogsArgs([]string{
		"50", "-component", "cloud", "-level", "warn", "-trace", "dead", "-since", "1.5"})
	if bad != "" {
		t.Fatalf("parse error: %q", bad)
	}
	if n != 50 || comp != "cloud" || level != logging.LevelWarn || tr != "dead" || since != 1.5 {
		t.Fatalf("parsed = (%d,%q,%v,%q,%g)", n, comp, level, tr, since)
	}
	for _, args := range [][]string{
		{"-level", "loud"},
		{"-level"},
		{"-component"},
		{"-trace"},
		{"-since", "soon"},
		{"-since", "nan"},
		{"zero"},
		{"0"},
	} {
		if _, _, _, _, _, bad := parseLogsArgs(args); bad == "" {
			t.Errorf("parseLogsArgs(%v) accepted bad input", args)
		}
	}
}

func TestParseAdvanceHours(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want float64
		ok   bool
	}{
		{"0", 0, true},
		{"5", 5, true},
		{"0.25", 0.25, true},
		{"8760", 8760, true},
		{"8760.5", 0, false},
		{"1e308", 0, false},
		{"1e400", 0, false},
		{"-1", 0, false},
		{"nan", 0, false},
		{"NaN", 0, false},
		{"inf", 0, false},
		{"+Inf", 0, false},
		{"-inf", 0, false},
		{"soon", 0, false},
		{"", 0, false},
	} {
		got, ok := parseAdvanceHours(tc.arg)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseAdvanceHours(%q) = %v, %v; want %v, %v", tc.arg, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseCount(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
		ok   bool
	}{
		{"1", 1, true},
		{"25", 25, true},
		{"100000", 100000, true},
		{"100001", 0, false},
		{"20000000", 0, false},
		{"200000000", 0, false},
		{"0", 0, false},
		{"-3", 0, false},
		{"1e5", 0, false},
		{"2.5", 0, false},
		{"many", 0, false},
		{"", 0, false},
	} {
		got, ok := parseCount(tc.arg)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseCount(%q) = %v, %v; want %v, %v", tc.arg, got, ok, tc.want, tc.ok)
		}
	}
}

// Every reply that is not a command's output comes from the command
// table or from a command's own argument check; quit, exit and a blank
// line reach no command.
func TestSessionErrorReplies(t *testing.T) {
	for _, tc := range []struct {
		line, want string
		quit       bool
	}{
		{"frobnicate", "unknown command \"frobnicate\" (try 'help')\n", false},
		{"trace", "usage: trace list | show <query> | critical [query] | cost | export <file>\n", false},
		{"spot", "usage: spot prices [-json] | preemptions [-json] | preempt <pool>\n", false},
		{"trace frob", "unknown trace subcommand \"frob\"\n", false},
		{"tsdb frob", "unknown tsdb subcommand \"frob\"\n", false},
		{"launch web", "usage: launch <name> <flavor>\n", false},
		{"sched fifo 4", "usage: sched <fifo|backfill|fairshare|preemptive> <jobs> <gpus>\n", false},
		{"incidents show", "usage: incidents show <id>\n", false},
		{"query", "usage: query <promql-lite expression>\n", false},
		{"launch web m1.small now", "usage: launch <name> <flavor>\n", false},
		{"list x", "usage: list\n", false},
		{"incidents list x", "usage: incidents list\n", false},
		{"trace list x", "usage: trace list\n", false},
		{"trace critical a b", "usage: trace critical [query]\n", false},
		{"tsdb stats x", "usage: tsdb stats\n", false},
		{"help x", "usage: help\n", false},
		{"metrics foo", "usage: metrics [-json]\n", false},
		{"metrics -json x", "usage: metrics [-json]\n", false},
		{"spot prices foo", "usage: spot prices [-json]\n", false},
		{"spot preemptions foo", "usage: spot preemptions [-json]\n", false},
		{"advance nan", "bad hours: nan\n", false},
		{"logs -since nan", "bad time: nan\n", false},
		{"logs -level debug", "bad level: debug\n", false},
		{"sched fifo 0 4", "bad jobs/gpus: 0 4\n", false},
		{"incidents show 1", "no incident #1 (try 'incidents list')\n", false},
		{"quit", "", true},
		{"exit", "", true},
		{"quit now", "", true},
		{"", "", false},
		{" \t ", "", false},
	} {
		var out strings.Builder
		quit := newSession(&out)(tc.line)
		if got := out.String(); got != tc.want || quit != tc.quit {
			t.Errorf("%q: replied %q, quit %v; want %q, %v", tc.line, got, quit, tc.want, tc.quit)
		}
	}
}

// A command that fails leaves the project's books as they were: a
// floating IP for a missing or deleted instance, or for one that already
// holds an address, is never allocated, and a volume too large to add to
// the usage is refused on quota.
func TestFailedCommandsKeepTheBooks(t *testing.T) {
	for _, tc := range []struct {
		lines []string
		want  string
	}{
		{[]string{"fip nobody", "quota"},
			"cloud: resource not found: instance \"nobody\"\n" +
				"instances 0/600  cores 0/1200  ram 0/2560 GB  fips 0/300\n"},
		{[]string{"launch web m1.small", "delete inst-000001", "fip inst-000001", "quota"},
			"inst-000001 ACTIVE on kvm@ctl-hv-000\ndeleted\n" +
				"cloud: resource not found: instance \"inst-000001\"\n" +
				"instances 0/600  cores 0/1200  ram 0/2560 GB  fips 0/300\n"},
		{[]string{"launch web m1.small", "fip inst-000001", "fip inst-000001", "quota"},
			"inst-000001 ACTIVE on kvm@ctl-hv-000\nassociated 129.114.0.3\n" +
				"cloud: floating IP already associated: instance \"inst-000001\" holds 129.114.0.3\n" +
				"instances 1/600  cores 1/1200  ram 2/2560 GB  fips 1/300\n"},
		{[]string{"volume b 10", "volume a 9223372036854775807", "volume c 10240"},
			"vol-000001 available (10 GB)\n" +
				"blockstore: block storage quota exceeded: 10 GB in use, 9223372036854775807 requested, limit 10240\n" +
				"blockstore: block storage quota exceeded: 10 GB in use, 10240 requested, limit 10240\n"},
	} {
		if got := runScript(tc.lines); got != tc.want {
			t.Errorf("%q: replied\n%s\nwant\n%s", tc.lines, got, tc.want)
		}
	}
}

// FuzzSession runs each script, cut to its first eight lines, through
// two fresh sessions one after the other: no line may panic, and both
// sessions must print the same bytes. sched's package-level hooks follow
// the latest session, so sessions never run in parallel here.
func FuzzSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, script string) {
		lines := strings.Split(script, "\n")
		if len(lines) > 8 {
			lines = lines[:8]
		}
		if first, second := runScript(lines), runScript(lines); first != second {
			t.Fatalf("two sessions disagree on %q:\n%s\n---\n%s", script, first, second)
		}
	})
}

// runScript feeds lines to a fresh session until one ends it, leaving
// out the lines fuzzSkips names, and returns everything it printed.
func runScript(lines []string) string {
	var out strings.Builder
	run := newSession(&out)
	for _, line := range lines {
		if !fuzzSkips(strings.Fields(line)) && run(line) {
			break
		}
	}
	return out.String()
}

// fuzzSkips reports whether FuzzSession leaves a line out. batch runs
// real goroutines against a wall-clock timer and tsdb stats prints wall
// time, so neither replays; the export commands write to paths taken
// from the input; and an advance past 200 h or a schedule of more than
// 1,000 jobs would let one input run for seconds.
func fuzzSkips(f []string) bool {
	switch {
	case len(f) == 0:
		return false
	case f[0] == "batch":
		return true
	case len(f) > 1 && (f[0] == "tsdb" && f[1] == "stats" ||
		(f[0] == "trace" || f[0] == "incidents") && f[1] == "export"):
		return true
	case len(f) > 1 && f[0] == "advance":
		h, err := strconv.ParseFloat(f[1], 64)
		return err == nil && h > 200
	case len(f) > 2 && f[0] == "sched":
		n, err := strconv.Atoi(f[2])
		return err == nil && n > 1000
	}
	return false
}

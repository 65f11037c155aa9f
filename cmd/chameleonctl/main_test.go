package main

import (
	"sort"
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
	if bad != "" || n != 20 || comp != "" || level != logging.LevelDebug || tr != "" || since != -1 {
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

// Command tsdbbench runs the monitoring-stack benchmark suite (collector
// scrape — delta, full-snapshot, and churn variants — and rate query)
// outside `go test` and writes machine-readable results to
// BENCH_tsdb.json, so perf regressions in the observability hot paths
// show up as a diffable artifact.
//
// Usage:
//
//	go run ./cmd/tsdbbench [-o BENCH_tsdb.json]
//	go run ./cmd/tsdbbench -check BENCH_tsdb.json
//
// With -check, the suite runs and exits non-zero if any benchmark's
// allocs/op regressed more than 20% against the committed baseline
// (allocs/op is the gate metric because it is stable across machines,
// unlike ns/op). Nothing is written in check mode; baseline entries for
// benchmarks that no longer exist, and new benchmarks without a
// baseline, are reported but don't fail the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/tsdb/bench"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	out := flag.String("o", "BENCH_tsdb.json", "output path for the JSON results")
	check := flag.String("check", "", "baseline JSON to gate against (no output written)")
	flag.Parse()

	cases := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"CollectorScrape", bench.CollectorScrape},
		{"CollectorScrapeFull", bench.CollectorScrapeFull},
		{"CollectorScrapeChurn", bench.CollectorScrapeChurn},
		{"QueryRate", bench.QueryRate},
	}
	results := make([]result, 0, len(cases))
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		res := result{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		results = append(results, res)
		fmt.Printf("%-22s %12d iter  %14.1f ns/op  %8d B/op  %6d allocs/op\n",
			res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	if *check != "" {
		os.Exit(gate(*check, results))
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsdbbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "tsdbbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// gate compares allocs/op against the baseline file and returns the
// process exit code. A benchmark fails when it regresses more than 20%
// AND by more than one absolute alloc — the slack keeps a 1→2 alloc
// jitter from flapping the gate while still catching real regressions.
func gate(path string, results []result) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsdbbench: read baseline: %v\n", err)
		return 1
	}
	var baseline []result
	if err := json.Unmarshal(data, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "tsdbbench: parse baseline: %v\n", err)
		return 1
	}
	base := make(map[string]result, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	code := 0
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok {
			fmt.Printf("%-22s no baseline (new benchmark), skipping\n", r.Name)
			continue
		}
		limit := float64(b.AllocsPerOp) * 1.2
		if float64(r.AllocsPerOp) > limit && r.AllocsPerOp > b.AllocsPerOp+1 {
			fmt.Printf("%-22s FAIL: %d allocs/op vs baseline %d (>20%% regression)\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
			code = 1
		} else {
			fmt.Printf("%-22s ok: %d allocs/op vs baseline %d\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
		}
		delete(base, r.Name)
	}
	if len(base) > 0 {
		names := make([]string, 0, len(base))
		for name := range base {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("note: baseline entries with no current benchmark: %v\n", names)
	}
	return code
}

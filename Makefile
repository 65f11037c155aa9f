# Reproduction of "The Cost of Teaching Operational ML" (SC Workshops '25).

GO ?= go

.PHONY: build fmt test vet lint race chaos trace slo sim spot logs benchgate check bench benchcheck repro csv examples clean

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, if gofmt would change any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-native static analysis: wallclock, mapalias, lockedcallback,
# unchecked, spanleak, and the interprocedural maprange / globalrand /
# floatmerge checks (see README "Static analysis"). Exits 1 on findings,
# 2 if the lint run itself failed.
lint:
	$(GO) run ./cmd/mlsyslint

race:
	$(GO) test -race ./...

# Seeded chaos suite: the fault-injection engine, the resilience
# primitives, and the cross-package fault paths (host failure/evacuation,
# quota-vs-lease races, dead-rank ring reformation, replica circuit
# breaking), all under the race detector. Everything here is driven by
# fixed seeds, so failures reproduce byte-for-byte.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/resilience/
	$(GO) test -race -count=1 -run 'Resilien|Fail|Errored|Reform|Replica|Evacuat|MTTR|TrySubmit|RetryPolicy|InjectedVolume' \
		./internal/cloud/ ./internal/orchestrator/ ./internal/collective/ ./internal/serve/ ./internal/lease/ ./internal/jobs/ ./internal/blockstore/

# Tracing suite: deterministic span IDs, critical-path extraction,
# byte-identical Chrome exports across same-seed runs, per-trace cost
# reconciliation, and the end-to-end propagation paths (lease, cloud,
# jobs, serve, collective) — all under the race detector, since spans
# are created from concurrent request paths.
trace:
	$(GO) test -race -count=1 ./internal/trace/
	$(GO) test -race -count=1 -run 'Trace|Span|Critical|Chrome|SubscribeDuringEmit' \
		./internal/report/ ./internal/telemetry/ ./internal/serve/ ./internal/jobs/

# Monitoring suite: the TSDB store, PromQL-lite engine, collector, and
# alert/SLO layer under the race detector (the scrape-while-emit and
# histogram-consistency tests need it), then the seeded monitoring e2e:
# the distributed-training example's alert timeline and SLO scorecard
# must be byte-identical across runs.
slo:
	$(GO) test -race -count=1 ./internal/tsdb/ ./internal/alert/
	$(GO) test -race -count=1 -run 'SLO|Alert|Dashboard|Scrape|Labeled|Histogram|MetricsJSON|EventsJSON' \
		./internal/report/ ./internal/telemetry/
	@mkdir -p out
	$(GO) run ./examples/distributed-training > out/slo_run_a.txt
	$(GO) run ./examples/distributed-training > out/slo_run_b.txt
	cmp out/slo_run_a.txt out/slo_run_b.txt
	@echo "slo: monitoring e2e byte-identical across runs"

# Sharded-core determinism gate: the same seed must render byte-identical
# reports under different GOMAXPROCS, shard sizes, and worker counts, and
# both must match the committed golden report. Race-enabled, since this
# is the one place shards genuinely run in parallel goroutines.
SIM_GOLDEN = internal/shardsim/testdata/sharded-20000-seed1.golden
sim:
	@mkdir -p out
	$(GO) build -race -o out/coursesim_race ./cmd/coursesim
	GOMAXPROCS=1 out/coursesim_race -sharded -students 20000 -shardsize 4096 -workers 4 > out/sim_run_a.txt
	GOMAXPROCS=8 out/coursesim_race -sharded -students 20000 -shardsize 1777 -workers 8 > out/sim_run_b.txt
	cmp out/sim_run_a.txt out/sim_run_b.txt
	cmp out/sim_run_a.txt $(SIM_GOLDEN)
	cmp out/sim_run_b.txt $(SIM_GOLDEN)
	@echo "sim: sharded report byte-identical across GOMAXPROCS and shard sizes, and to the golden"

# Spot suite: the preemptible market, seeded price walks, checkpoint
# policy, and the migrate-on-notice training controller under the race
# detector, then the seeded spot-training e2e: the survival scorecard,
# bill reconciliation, and trace tree must be byte-identical across
# same-seed runs.
spot:
	$(GO) test -race -count=1 -run 'Spot|Preempt|Checkpoint|Train|Backoff|HalfOpen|Young' \
		./internal/cloud/ ./internal/cost/ ./internal/chaos/ ./internal/resilience/ \
		./internal/orchestrator/ ./internal/train/ ./internal/report/ ./cmd/chameleonctl/
	@mkdir -p out
	$(GO) run ./examples/spot-training > out/spot_run_a.txt
	$(GO) run ./examples/spot-training > out/spot_run_b.txt
	cmp out/spot_run_a.txt out/spot_run_b.txt
	@echo "spot: training survival e2e byte-identical across runs"

# Logging + flight-recorder suite: the structured logger, the incident
# recorder, and the alert-hook plumbing under the race detector (the
# logger's rings are written from concurrent request paths), then the
# two deterministic e2e gates: the distributed-training example must
# export byte-identical incident bundles across same-seed runs, and the
# spot-training example with the recorder armed (its SLO stays inside
# budget, so the recorder captures nothing) must be bit-identical to the
# same run without the recorder.
logs:
	$(GO) test -race -count=1 ./internal/logging/ ./internal/flightrec/ ./internal/alert/
	$(GO) test -race -count=1 -run 'Log|Incident|FilterEvents|Sampler' 		./internal/report/ ./cmd/chameleonctl/
	@mkdir -p out
	$(GO) run ./examples/distributed-training -incident out/incident_a.txt > /dev/null
	$(GO) run ./examples/distributed-training -incident out/incident_b.txt > /dev/null
	cmp out/incident_a.txt out/incident_b.txt
	@echo "logs: incident bundle byte-identical across runs"
	$(GO) run ./examples/spot-training > out/logs_rec_off.txt
	$(GO) run ./examples/spot-training -recorder > out/logs_rec_on.txt
	cmp out/logs_rec_off.txt out/logs_rec_on.txt
	@echo "logs: armed-but-quiet recorder bit-identical to recorder-off"

# Benchmark-module gate: cmd/bench is a Go module of its own, so the
# root build and tests never compile it. Vet it and run its tests, which
# check the full-size goldens of all four workloads (about 5 s).
benchgate:
	cd cmd/bench && $(GO) vet ./... && $(GO) test ./...

# Default verification path: formatting, compile, static checks (go vet
# plus the repo's own mlsyslint pass), unit tests, the race-enabled suite
# (the concurrent batcher/telemetry tests need it), the seeded chaos
# suite, the tracing suite, the monitoring/SLO suite, the sharded-core
# determinism gate, the spot-survival suite, the logging/flight-recorder
# suite, then the benchmark module.
check: fmt build vet lint test race chaos trace slo sim spot logs benchgate

# Benchmarks: the full `go test -bench` sweep, the monitoring-stack
# suite via cmd/tsdbbench (BENCH_tsdb.json), the sharded-core
# throughput suite via cmd/simbench (BENCH_sim.json: students/sec and
# bytes/student at 100k and 1M students), then full-repo lint wall time
# via cmd/lintbench (BENCH_lint.json: sequential vs parallel loading),
# and the spot-market suite via cmd/spotbench (BENCH_spot.json: price
# walk, bill integration, end-to-end survival run), and the logging
# suite via cmd/logbench (BENCH_log.json: emit, sampling, ring merge).
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/tsdbbench -o BENCH_tsdb.json
	$(GO) run ./cmd/simbench -o BENCH_sim.json
	$(GO) run ./cmd/lintbench -o BENCH_lint.json
	$(GO) run ./cmd/spotbench -o BENCH_spot.json
	$(GO) run ./cmd/logbench -o BENCH_log.json

# Allocation-regression gate: re-run the monitoring-stack and logging
# suites and fail if any benchmark's allocs/op regressed >20% against
# the committed BENCH_*.json (allocs/op is stable across machines;
# ns/op is not). logbench additionally pins the emit path to its hard
# ≤1 alloc/op contract regardless of baseline.
benchcheck:
	$(GO) run ./cmd/tsdbbench -check BENCH_tsdb.json
	$(GO) run ./cmd/logbench -check BENCH_log.json

# Regenerate every table and figure plus the capacity/support views.
repro:
	$(GO) run ./cmd/coursesim

csv:
	$(GO) run ./cmd/coursesim -summary -csv out/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gourmetgram
	$(GO) run ./examples/distributed-training
	$(GO) run ./examples/capacity-planning
	$(GO) run ./examples/edge-serving
	$(GO) run ./examples/data-pipeline
	$(GO) run ./examples/spot-training

clean:
	rm -rf out/ test_output.txt bench_output.txt

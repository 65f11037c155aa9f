# Reproduction of "The Cost of Teaching Operational ML" (SC Workshops '25).

GO ?= go

.PHONY: build fmt test vet lint race chaos trace slo slo-cmp sim spot spot-cmp logs logs-cmp benchgate check bench repro csv examples clean

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
# floatmerge / deadcode checks (see README "Static analysis"). Exits 1 on
# findings, 2 if the lint run itself failed.
lint:
	$(GO) run ./cmd/mlsyslint

race:
	$(GO) test -race ./...

# Seeded chaos suite: the fault-injection engine, the resilience
# primitives, and the cross-package fault paths (host failure/evacuation,
# quota-vs-lease races, dead-rank ring reformation), all under the race
# detector. Everything here is driven by fixed seeds, so failures
# reproduce byte-for-byte.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/resilience/
	$(GO) test -race -count=1 -run 'Resilien|Fail|Errored|Reform|Replica|Evacuat|MTTR' \
		./internal/cloud/ ./internal/orchestrator/ ./internal/collective/ ./internal/lease/ ./internal/jobs/

# Tracing suite: deterministic span IDs, critical-path extraction,
# byte-identical Chrome exports across same-seed runs, per-trace cost
# reconciliation, and the end-to-end propagation paths (lease, cloud,
# serve, collective) — all under the race detector, since spans are
# created from concurrent request paths.
trace:
	$(GO) test -race -count=1 ./internal/trace/
	$(GO) test -race -count=1 -run 'Trace|Span' \
		./internal/report/ ./internal/serve/

# Monitoring suite: the TSDB store, PromQL-lite engine, collector, and
# alert/SLO layer under the race detector (the scrape-while-emit and
# histogram-consistency tests need it), then the seeded monitoring e2e:
# the distributed-training example's alert timeline and SLO scorecard
# must be byte-identical across runs. The cmp gate, slo-cmp, runs first.
slo: slo-cmp
	$(GO) test -race -count=1 ./internal/tsdb/ ./internal/alert/
	$(GO) test -race -count=1 -run 'SLO|Dashboard|Labeled|Histogram|MetricsJSON' \
		./internal/report/ ./internal/telemetry/

slo-cmp:
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
# same-seed runs. The cmp gate, spot-cmp, runs first.
spot: spot-cmp
	$(GO) test -race -count=1 -run 'Spot|Preempt|Checkpoint|Train|Young' \
		./internal/cloud/ ./internal/cost/ ./internal/chaos/ ./internal/resilience/ \
		./internal/orchestrator/ ./internal/train/ ./internal/report/ ./cmd/chameleonctl/

spot-cmp:
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
# same run without the recorder. The cmp gates, logs-cmp, run first.
logs: logs-cmp
	$(GO) test -race -count=1 ./internal/logging/ ./internal/flightrec/ ./internal/alert/
	$(GO) test -race -count=1 -run 'Log|Incident' 		./internal/report/ ./cmd/chameleonctl/

logs-cmp:
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
# (the concurrent batcher/telemetry tests need it), the sharded-core
# determinism gate, the byte-identity gates of the monitoring/SLO, spot
# and logging suites, then the benchmark module. The suites' own -race
# test runs are subsets of `race`, so check runs only their cmp gates;
# CI runs each whole suite as its own job.
check: fmt build vet lint test race sim slo-cmp spot-cmp logs-cmp benchgate

# Micro-benchmarks: every `go test -bench` in the module. End-to-end
# numbers come from cmd/bench (see cmd/bench/README.md); allocation
# contracts are AllocsPerRun tests that `make test` already runs.
bench:
	$(GO) test -bench=. -benchmem ./...

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

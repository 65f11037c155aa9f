# Reproduction of "The Cost of Teaching Operational ML" (SC Workshops '25).

GO ?= go

.PHONY: build fmt test vet lint race benchgate check bench repro csv examples clean

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

# Benchmark-module gate: cmd/bench is a Go module of its own, so the
# root build and tests never compile it. Vet it and run its tests, which
# check the full-size goldens of all four workloads (about 5 s).
benchgate:
	cd cmd/bench && $(GO) vet ./... && $(GO) test ./...

# Default verification path: formatting, compile, static checks (go vet
# plus the repo's own mlsyslint pass), unit tests with the scenario test
# (scenario_test.go: every deterministic program's output against its
# golden), the race-enabled suite (the concurrent batcher/telemetry tests
# need it), then the benchmark module.
check: fmt build vet lint test race benchgate

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

# Cohesion reproduction — convenience targets. Everything is plain `go`
# underneath; no target does anything you could not type yourself.

GO ?= go

.PHONY: all build test race serve serve-test bench profile microbench experiments examples fmt vet cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the job service locally (state under ./serve-state; Ctrl-C drains).
serve:
	$(GO) run ./cmd/cohesion-serve -addr 127.0.0.1:8080 -state serve-state

# The serving-layer test battery: unit, e2e, load, and crash/restart,
# all under the race detector (what CI's serve-robustness job runs).
serve-test:
	$(GO) test -race -run 'TestServe|TestRunner|TestClamp' -timeout 15m \
		. ./internal/serve/ ./internal/pool/ ./internal/runctl/

# The repository benchmark (bench/README.md): all five workloads, each
# printing its end-to-end metrics and its count of failed operations.
bench:
	bash bench/run.sh

# Hot-path profiling: one traced round of the sim workload under the CPU
# profiler, then the top flat costs. The profile, the per-layer metrics
# and a Perfetto-loadable trace stay under .bench_build/trace/.
profile:
	bash bench/run.sh --workload sim --trace 1
	$(GO) tool pprof -top -nodecount 15 .bench_build/trace/sim.cpu.pprof

# The go-test micro-benchmarks (per-package, -benchmem).
microbench:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/cohesion-experiments -fig all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/dirsizing
	$(GO) run ./examples/hybridtuning
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/coschedule
	$(GO) run ./examples/taskmigration

clean:
	$(GO) clean ./...

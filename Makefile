# Developer checks for the WireCAP reproduction. `make ci` mirrors the
# GitHub Actions pipeline exactly: formatting, vet, build, tests, the
# race detector across every package, a time-bounded fuzz pass over the
# BPF backend-equivalence property, and the deterministic regression
# gate (cmd/ci-gate against the committed baselines.json). `make check`
# is the quick subset for inner-loop development.
#
# `make bench` refreshes BENCH_vtime.json; `make bench-check` compares
# against the committed file read-only (the CI mode). `make bench-build`
# vets and tests the frozen wirebench module (cmd/wirebench/_src), which
# sits outside the root module's ./..., so an API break in a package it
# imports fails here rather than only when the benchmark runs. `make gate`
# runs the regression gate alone; refresh its baselines after an
# intentional behavior change with `make baselines`.
#
# `make trace` writes trace.json — a Chrome trace-event export of the
# chaos_queue_hang scenario with the flight recorder attached; inspect
# with `go run ./cmd/wiretrace -r trace.json` (or chrome://tracing).
# `make fleet-trace` does the fleet equivalent: the host-kill storm
# traced end to end, plus the rendered wirestat dashboard and journey
# dump (fleet-trace.json, fleet-dashboard.txt, fleet-journeys.txt).
#
# `make lint` runs wirelint (the repo's own analyzer suite in
# internal/lint: walltime, maporder, hotpath, lockdiscipline,
# concurrency, the directive meta-rule, plus the interprocedural
# hotpathflow, determinism, and conservation passes) over the whole
# module, self-lints the analyzer package (zero findings, zero allows
# over internal/lint), then runs staticcheck when a pinned binary is
# available (`make staticcheck-install` fetches it; CI always runs it).

GO ?= go
TRACE_SCENARIO ?= chaos_queue_hang
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: ci check fmt-check vet build test race fuzz gate bench bench-check bench-build baselines chaos fleet-chaos trace fleet-trace lint wirelint selflint wirelint-json staticcheck staticcheck-install all

all: check

ci: fmt-check vet lint build test race fuzz gate bench-check bench-build

check: vet build test

lint: wirelint selflint staticcheck

wirelint:
	$(GO) run ./cmd/wirelint -root .

# The analyzers must hold themselves to their own rules with no
# exceptions at all: zero findings and zero allow directives over
# internal/lint.
selflint:
	$(GO) run ./cmd/wirelint -root . -only internal/lint -noallow

# The machine-readable findings artifact CI uploads: sorted findings
# plus the full allow inventory, byte-deterministic per tree.
wirelint-json:
	$(GO) run ./cmd/wirelint -root . -json > wirelint-findings.json

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (run 'make staticcheck-install', CI runs it always)"; \
	fi

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Time-bounded coverage-guided fuzzing of the BPF backend-equivalence
# property: interpreter, flattened bytecode, and fused predicates must
# agree on every (expression, packet) the fuzzer finds.
fuzz:
	$(GO) test -fuzz=FuzzBackendsAgree -fuzztime=30s ./internal/bpf

gate:
	$(GO) run ./cmd/ci-gate

baselines:
	$(GO) run ./cmd/ci-gate -update

chaos:
	$(GO) run ./cmd/experiments -run chaos

# The fleet-resilience report: the fleet_chaos_* scenarios the gate
# replays (conservation + delivery floor re-checked inline) plus the
# host-kill degradation table.
fleet-chaos:
	$(GO) run ./cmd/experiments -run fleet

trace:
	$(GO) run ./cmd/experiments -trace trace.json -tracescenario $(TRACE_SCENARIO)

# The fleet observability bundle (EXPERIMENTS.md "Reading a fleet
# dashboard"): the host-kill storm traced with journeys, health lanes,
# and the forensics ledger, then rendered by wirestat.
fleet-trace:
	$(GO) run ./cmd/experiments -trace fleet-trace.json -tracescenario fleet_chaos_host_kill
	$(GO) run ./cmd/wirestat -r fleet-trace.json > fleet-dashboard.txt
	$(GO) run ./cmd/wirestat -r fleet-trace.json -journeys > fleet-journeys.txt

bench:
	$(GO) run ./cmd/vtime-bench -o BENCH_vtime.json

bench-check:
	$(GO) run ./cmd/vtime-bench -check

bench-build:
	$(GO) -C cmd/wirebench/_src vet ./...
	$(GO) -C cmd/wirebench/_src test ./...

# Standard targets for the Twig reproduction. Everything is plain
# `go` — the Makefile only names the invocations CI and contributors
# share.

GO ?= go

.PHONY: all build test race vet fmt check docs fuzz cover bench bench-check bench-update experiments ledger-demo fleet-demo clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs reformatting (same check CI runs).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# check runs the tier-1 suite plus the twigcheck build, which compiles
# the per-instruction pipeline invariants into every simulation and
# verifies every run against internal/check (see TESTING.md).
check:
	$(GO) test ./...
	$(GO) test -tags twigcheck ./...

# docs fails if any package lacks its doc comment (same check CI runs).
docs:
	./scripts/checkdocs.sh

# fuzz runs the same 20-second smoke of every fuzz target CI runs.
fuzz:
	$(GO) test ./internal/profile -run='^$$' -fuzz=FuzzLoad -fuzztime=20s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=20s
	$(GO) test ./internal/exec -run='^$$' -fuzz=FuzzBatchEquivalence -fuzztime=20s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReaderBatch -fuzztime=20s
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzBuild -fuzztime=20s
	$(GO) test ./internal/runner -run='^$$' -fuzz=FuzzDecode -fuzztime=20s
	$(GO) test ./internal/u64table -run='^$$' -fuzz=FuzzTable -fuzztime=20s
	$(GO) test ./internal/checkpoint -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=20s
	$(GO) test ./internal/btb -run='^$$' -fuzz=FuzzHierarchy -fuzztime=20s
	$(GO) test ./internal/twigopt -run='^$$' -fuzz=FuzzAnalyzeEquivalence -fuzztime=20s

# cover writes coverage.out and prints the per-function summary.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 20

# bench measures simulator throughput (ns/op and simulated kIPS) for
# the three main schemes on the default 1M-instruction cassandra run
# and prints the delta against the committed BENCH_pipeline.json; see
# PERFORMANCE.md for the methodology.
bench:
	$(GO) run ./cmd/twigbench -reps 5

# bench-check fails if any scheme regresses >10% kIPS against the
# committed baseline (the CI bench-regression job's local equivalent).
bench-check:
	$(GO) run ./cmd/twigbench -reps 5 -check -tolerance 0.10

# bench-update rewrites BENCH_pipeline.json with this machine's
# numbers; commit the result when the hot path deliberately changes.
bench-update:
	$(GO) run ./cmd/twigbench -reps 5 -update

experiments:
	$(GO) run ./cmd/experiments

# experiments-fast fans the matrix out over every core with a
# persistent result cache: the first run pays full price, reruns
# re-execute only what changed (see DESIGN.md §7).
experiments-fast:
	$(GO) run ./cmd/experiments -j 0 -cache .twig-cache

# ledger-demo runs a small slice of the matrix with span tracing on and
# leaves twig-ledger.jsonl (the run ledger) plus twig-trace.json (open
# in https://ui.perfetto.dev) behind, then validates both files with
# the ledger schema tests (see DESIGN.md §10).
ledger-demo:
	$(GO) run ./cmd/experiments -only fig1,fig11 -apps verilator,kafka \
		-instructions 200000 -j 4 -cache "" \
		-ledger twig-ledger.jsonl -perfetto twig-trace.json
	$(GO) test ./internal/telemetry -run TestLedgerFileValidates \
		-args -ledger-file=$(CURDIR)/twig-ledger.jsonl -trace-file=$(CURDIR)/twig-trace.json

# fleet-demo boots a local fleet — one coordinator, two workers — runs
# an experiment slice distributed over it, then reruns with a fresh
# local cache: the rerun replays everything from the fleet's shared
# store (the runner line reports 0 sims run). Watch it live with
# `go run ./cmd/twigtop -url http://127.0.0.1:9090`; see DESIGN.md §12.
fleet-demo:
	$(GO) build -o /tmp/twigd-demo ./cmd/twigd
	$(GO) build -o /tmp/twigworker-demo ./cmd/twigworker
	@/tmp/twigd-demo -listen 127.0.0.1:9090 & coord=$$!; \
	sleep 1; \
	/tmp/twigworker-demo -coordinator http://127.0.0.1:9090 -name w1 -cache "" & w1=$$!; \
	/tmp/twigworker-demo -coordinator http://127.0.0.1:9090 -name w2 -cache "" & w2=$$!; \
	trap 'kill $$coord $$w1 $$w2 2>/dev/null || true' EXIT; \
	$(GO) run ./cmd/experiments -only fig1,fig16 -apps verilator,kafka \
		-instructions 200000 -j 4 -cache "" \
		-coordinator http://127.0.0.1:9090; \
	$(GO) run ./cmd/experiments -only fig1,fig16 -apps verilator,kafka \
		-instructions 200000 -j 4 -cache "" \
		-coordinator http://127.0.0.1:9090

# BENCH_pipeline.json is a committed baseline (bench-update regenerates
# it deliberately); clean only removes derived files.
clean:
	rm -f coverage.out twig-ledger.jsonl twig-trace.json

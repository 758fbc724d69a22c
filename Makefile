GO ?= go

# Which committed benchmark record bench-json refreshes, and what
# bench-compare diffs a fresh run against.
BENCH_JSON ?= BENCH_10.json

# Regression factor for bench-compare: flag growth past 1.5x. Ordinary
# run-to-run noise on a quiet machine stays well under that; tighten
# with BENCH_THRESHOLD=1.2 when chasing a specific benchmark.
BENCH_THRESHOLD ?= 1.5

.PHONY: all build test bench bench-smoke bench-json bench-compare cover race race-full fuzz-smoke vet examples serve-smoke ci

# Every example binary, smoke-run at reduced problem size.
EXAMPLES := quickstart jacobi3d adcirc amr migration cloudrestart

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Benchmarks for every table/figure plus the engine and MPI hot paths.
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# One iteration of every benchmark, as CI's bench-smoke job runs it: a
# compile-and-execute check that keeps the bench suite (including the
# million-VP scale run) from rotting between full bench-json refreshes.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime=1x -benchmem ./...

# Machine-readable benchmark record: name -> ns/op, B/op, allocs/op.
# Committed so benchmark movement shows up in diffs. -strict refuses a
# record with unparseable benchmark lines instead of committing a
# silently truncated one.
bench-json:
	$(GO) test -run xxx -bench . -benchmem ./... | $(GO) run ./cmd/benchjson -strict > $(BENCH_JSON)

# Re-measure the full benchmark suite and diff against the committed
# record; exits nonzero when any benchmark's ns/op or allocs/op grew
# past BENCH_THRESHOLD. Timing must match how the committed record was
# produced (full -benchtime), so this takes as long as bench-json —
# comparing a -benchtime=1x run against a fully-timed record only
# measures warm-up. CI's advisory bench-compare job instead benchmarks
# the PR base and head at the same -benchtime=1x and diffs those.
bench-compare:
	$(GO) test -run xxx -bench . -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_JSON) BENCH_new.json

# Per-package and total statement coverage; cover.out feeds
# `go tool cover -html=cover.out` and the CI coverage artifact.
cover:
	$(GO) test -cover -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# The sweep runner, the per-world pools, and the parallel event loop
# (sim.ParallelEngine's window workers) are the code that runs under
# parallelism; race-check the packages that exercise them (the ft
# supervisor runs inside the parallel sweep fan-outs, and machine/lb
# carry the membership-epoch and rebalance state it mutates between
# attempts). Every rank's copy-on-write data segment in a process reads
# one shared base from whichever sweep worker runs its world, so mem and
# core are checked too. ult is here because
# its handoff is iter.Pull, which carries the race detector's
# annotations: the kill/unwind and leak tests must hold under them.
race:
	$(GO) test -race ./internal/ult/... ./internal/sim/... ./internal/harness/... ./internal/ampi/... ./internal/ft/... ./internal/machine/... ./internal/lb/... ./internal/mem/... ./internal/core/...

# Full race sweep over every package, as CI's race job runs it.
race-full:
	$(GO) test -race ./...

# Ten seconds each of the copy-on-write segment view against its
# flat-heap oracle and of ChurnSpec.Compile against its
# sort-then-truncate oracle: long enough to leave the seed corpus, short
# enough for CI.
fuzz-smoke:
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzSegmentView -fuzztime 10s
	$(GO) test ./internal/ft -run '^$$' -fuzz FuzzChurnCompile -fuzztime 10s

vet:
	$(GO) vet ./...

# Smoke-run every example at -quick scale; a broken example is a
# broken front door even when the libraries all pass.
examples:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex -quick"; \
		$(GO) run ./examples/$$ex -quick > /dev/null || exit 1; \
	done

# End-to-end check of the experiment server: boot `privbench -serve`,
# POST the same tiny Spec twice, assert the second response is a cache
# hit with byte-identical row payloads and exactly one simulation run.
serve-smoke:
	./scripts/serve_smoke.sh

# Everything CI runs, in the same order (see .github/workflows/ci.yml).
ci: vet build test examples bench-smoke serve-smoke race fuzz-smoke

GO ?= go

.PHONY: all build test bench bench-smoke cover race race-full fuzz-smoke vet serve-smoke ci

all: build test

build:
	$(GO) build ./...

# Also runs every examples/*.json document through `privbench -spec`
# and compares the output with its golden (TestExampleDocuments).
test:
	$(GO) test ./...

# The micro-benchmarks that sit beside each layer's code, for measuring
# while you work. The repository's benchmark — paired runs, bounds, the
# per-layer probes — is bench/ (see bench/README.md and BENCHMARK.json).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# One iteration of each, as CI's bench-smoke job runs it: a
# compile-and-execute check that keeps them from rotting.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime=1x -benchmem ./...

# Per-package and total statement coverage; cover.out feeds
# `go tool cover -html=cover.out` and the CI coverage artifact.
cover:
	$(GO) test -cover -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# The harness's sweep fan-out, the server's leader admission and the
# per-world pools are the code that runs under parallelism; race-check
# the packages that exercise them (the ft supervisor runs inside the
# parallel sweep fan-outs, and builds a new
# machine and rebalance state for every attempt). Every rank's
# copy-on-write data segment in a process reads one shared base from
# whichever sweep worker runs its world, so mem and core are checked
# too. ult is here because its handoff is iter.Pull, which carries the
# race detector's annotations: the kill/unwind and leak tests must hold
# under them. The workloads are here because Jacobi's pool of rank
# storage is shared by the worlds that concurrent sweep and serve
# workers run.
race:
	$(GO) test -race ./internal/ult/... ./internal/sim/... ./internal/harness/... ./internal/ampi/... ./internal/ft/... ./internal/machine/... ./internal/lb/... ./internal/mem/... ./internal/core/... ./internal/serve/... ./internal/workloads/...

# Full race sweep over every package, as CI's race job runs it.
race-full:
	$(GO) test -race ./...

# Ten seconds each of the copy-on-write segment view against its
# flat-heap oracle, of ChurnSpec.Compile against its sort-then-truncate
# oracle, of the Spec wire codec (decode, validate, hash, round trip),
# of the result store's log index over arbitrary bytes and a record
# appended after them, of the linear match queues against the
# hash-indexed ones they replaced, and of Jacobi's row-slice kernels
# against the index-arithmetic ones: long enough to leave the seed
# corpus, short enough for CI.
fuzz-smoke:
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzSegmentView -fuzztime 10s
	$(GO) test ./internal/ft -run '^$$' -fuzz FuzzChurnCompile -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzSpecDecode -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s
	$(GO) test ./internal/resultstore -run '^$$' -fuzz FuzzStoreLoad -fuzztime 10s
	$(GO) test ./internal/ampi -run '^$$' -fuzz FuzzMatchQueue -fuzztime 10s
	$(GO) test ./internal/workloads/jacobi -run '^$$' -fuzz FuzzJacobiSweep -fuzztime 10s

# go vet, and no file gofmt would change.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above need formatting"; exit 1; }

# End-to-end check of the experiment server: boot `privbench -serve`,
# POST the same tiny Spec twice, assert the second response is a cache
# hit with byte-identical row payloads and exactly one simulation run;
# then a fault point and a churn point through POST and `privbench
# -spec`, which must print the same row.
serve-smoke:
	./scripts/serve_smoke.sh

# Everything CI runs, in the same order (see .github/workflows/ci.yml).
ci: vet build test bench-smoke serve-smoke race fuzz-smoke

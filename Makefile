GO ?= go

.PHONY: all build test check check-race cover deadcode fuzz bench exp serve-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# CI gate: vet, gofmt (any file `gofmt -l` lists fails the gate), the
# unlinked-function scan (`make deadcode`), the full suite (which replays every fuzz seed corpus and runs the exact-count pins:
# goldens, message and round counts, allocations per run), a race-enabled
# run of the engine-equivalence, scratch-reuse, fault-injection and
# panic-to-caller tests — the tests most likely to catch a data race
# introduced in the parallel engines, their pooled per-worker state and the
# scheduler's per-run shard workers — plus the serving
# layer's concurrency tests (cache singleflight, shutdown drain, load
# shedding) under the race detector, the serve round-trip smoke, and the
# per-package coverage floor. Nothing in it compares a wall-clock time, so
# it gives the same result on any host; timing belongs to `make bench`.
check:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(MAKE) deadcode
	$(GO) test ./...
	$(GO) test -race -count=1 -run 'Equivalence|Matches|WorkerCount|Crash|Fault|Normalize|Decomp|Deterministic|RunDecider|PanicReachesCaller' ./internal/local ./internal/graph ./internal/fault ./internal/decomp ./internal/lll ./internal/growth ./internal/eth ./internal/orient ./internal/coloring
	$(GO) test -race -count=1 -run 'Race|Singleflight|Property|Flush|Cached' ./internal/server ./internal/cache
	$(MAKE) serve-smoke
	$(MAKE) cover

# Per-package coverage floor: the packages at the heart of the reproduction
# (engines, the graph substrate including the frugal engine's skeleton
# construction, schema substrate, instrumentation, the coloring schemas)
# must each stay at or above 70% statement coverage. The decomposition, LLL-solver, Theorem 4.1
# schema, LCL, Section 8 table and orientation packages are small and well
# covered, so they carry a stricter 85% floor of their own.
COVER_FLOOR := 70.0
COVER_PKGS  := ./internal/local ./internal/graph ./internal/core ./internal/obs ./internal/server ./internal/cache ./internal/persist ./internal/coloring
DECOMP_COVER_FLOOR := 85.0
DECOMP_COVER_PKGS  := ./internal/decomp ./internal/lll ./internal/growth ./internal/lcl ./internal/eth ./internal/orient

cover:
	$(GO) test -count=1 -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
	{ print } \
	/^ok/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
			pct = $$(i + 1); sub(/%/, "", pct); \
			if (pct + 0 < floor) { printf "FAIL: %s coverage %s%% below floor %s%%\n", $$2, pct, floor; bad = 1 } \
		} \
	} \
	END { exit bad }'
	$(GO) test -count=1 -cover $(DECOMP_COVER_PKGS) | awk -v floor=$(DECOMP_COVER_FLOOR) '\
	{ print } \
	/^ok/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
			pct = $$(i + 1); sub(/%/, "", pct); \
			if (pct + 0 < floor) { printf "FAIL: %s coverage %s%% below floor %s%%\n", $$2, pct, floor; bad = 1 } \
		} \
	} \
	END { exit bad }'

# Unlinked-function scan: builds locad, the examples and perfbench with
# inlining off and fails on any function or method declared under
# internal/ that none of them links and scripts/deadcode's keep list does
# not name with a reason.
deadcode:
	$(GO) run ./scripts/deadcode

# Exhaustive race gate (slower): the whole suite under the race detector.
check-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short fuzzing bursts on the parser and advice-codec fuzz targets, on the
# multi-source BFS against its per-node reference, and on the one binary
# frame the server accepts without authentication (LADB
# batches); the seed corpora alone run on every plain `go test`.
fuzz:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=30s ./internal/graph
	$(GO) test -fuzz=FuzzNearestSources -fuzztime=30s ./internal/graph
	$(GO) test -fuzz=FuzzDecodeVarArbitraryAdvice -fuzztime=30s ./internal/orient
	$(GO) test -fuzz=FuzzDecodeArbitraryBits -fuzztime=30s ./internal/growth
	$(GO) test -fuzz=FuzzHandleDecode -fuzztime=30s ./internal/server
	$(GO) test -fuzz=FuzzBatchFrame -fuzztime=30s ./internal/server
	$(GO) test -fuzz=FuzzTableBinary -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzDecompose -fuzztime=30s ./internal/decomp
	$(GO) test -fuzz=FuzzSolveDeterministic -fuzztime=30s ./internal/lll
	$(GO) test -fuzz=FuzzSolveKColoring -fuzztime=30s ./internal/coloring

# The benchmark of record: each perfbench workload once at seed 1. Each run
# prints its result as the last line of its output (perfbench/README.md).
# Compare two commits with alternating runs of one workload, not with a
# stored result. The Go micro-benchmarks in bench_test.go are for profiling:
# go test -run '^$' -bench <regex> -benchmem .
bench:
	for w in hot-decode new-graphs batch-decompress exp-tables; do python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; done

# Serving-layer smoke: build locad, start `locad serve` on an ephemeral
# port, drive it with a short loadgen, scrape /v1/stats, and check that
# SIGTERM drains to a clean exit.
serve-smoke:
	scripts/serve_smoke.sh

# Regenerate the experiment tables (EXPERIMENTS.md source of truth).
exp:
	$(GO) run ./cmd/locad exp

clean:
	$(GO) clean ./...

GO ?= go
DATE := $(shell date +%F)

.PHONY: all build test check check-race cover fuzz bench bench-msg exp serve-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# CI gate: vet, the full suite (which replays every fuzz seed corpus), a
# race-enabled run of the engine-equivalence and fault-injection property
# tests — the tests most likely to catch a data race introduced in the
# parallel engines — plus the serving layer's concurrency tests (cache
# singleflight, shutdown drain, load shedding) under the race detector, the
# serve round-trip smoke, the benchmark-regression comparison against the
# newest recorded BENCH_*.json baseline, and the per-package coverage floor.
check:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -count=1 -run 'Equivalence|Matches|WorkerCount|Crash|Fault|Normalize|Decomp|Deterministic|RunDecider' ./internal/local ./internal/fault ./internal/decomp ./internal/lll
	$(GO) test -race -count=1 -run 'Race|Singleflight|Property|Flush|Cached' ./internal/server ./internal/cache ./internal/cluster
	$(MAKE) serve-smoke
	LOCAD_BENCH_REGRESSION=1 $(GO) test -count=1 -run TestBenchRegression .
	$(MAKE) cover

# Per-package coverage floor: the packages at the heart of the reproduction
# (engines, the graph substrate including the frugal engine's skeleton
# construction, schema substrate, instrumentation) must each stay at or
# above 70% statement coverage. The decomposition and LLL-solver packages
# are newer and smaller, so they carry a stricter 85% floor of their own.
COVER_FLOOR := 70.0
COVER_PKGS  := ./internal/local ./internal/graph ./internal/core ./internal/obs ./internal/server ./internal/cache ./internal/persist ./internal/cluster
DECOMP_COVER_FLOOR := 85.0

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
	$(GO) test -count=1 -cover ./internal/decomp ./internal/lll | awk -v floor=$(DECOMP_COVER_FLOOR) '\
	{ print } \
	/^ok/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
			pct = $$(i + 1); sub(/%/, "", pct); \
			if (pct + 0 < floor) { printf "FAIL: %s coverage %s%% below floor %s%%\n", $$2, pct, floor; bad = 1 } \
		} \
	} \
	END { exit bad }'

# Exhaustive race gate (slower): the whole suite under the race detector.
check-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short fuzzing bursts on the parser and advice-codec fuzz targets; the seed
# corpora alone run on every plain `go test`.
fuzz:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=30s ./internal/graph
	$(GO) test -fuzz=FuzzDecodeVarArbitraryAdvice -fuzztime=30s ./internal/orient
	$(GO) test -fuzz=FuzzDecodeArbitraryBits -fuzztime=30s ./internal/growth
	$(GO) test -fuzz=FuzzHandleDecode -fuzztime=30s ./internal/server
	$(GO) test -fuzz=FuzzTableBinary -fuzztime=30s ./internal/persist
	$(GO) test -fuzz=FuzzDecompose -fuzztime=30s ./internal/decomp
	$(GO) test -fuzz=FuzzSolveDeterministic -fuzztime=30s ./internal/lll

# Full benchmark sweep, recorded as BENCH_<date>.json for regression tracking.
bench:
	scripts/bench.sh BENCH_$(DATE).json

# Message-engine + LLL subset (sharded scheduler, sequential and frugal
# engines, Moser-Tardos resampling throughput), recorded the same way.
bench-msg:
	scripts/bench.sh BENCH_$(DATE)_msg.json 'Engine|MessageEngine|MoserTardos|LLL'

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

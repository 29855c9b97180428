# Developer entry points; CI runs the same targets.

GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-json bench-gate bench-baseline bench-smoke fuzz cover examples lines

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = vet plus buddylint, the type-aware invariant suite in
# internal/lint (lockorder, hotpathalloc, sentinelerr, mustclose); see
# DESIGN.md "Invariants as analyzers". A finding can be
# suppressed one site at a time with a justified directive on or directly
# above the flagged line:
#
#     //nolint:buddy/<analyzer> -- reason the violation is safe here
#
# buddylint itself rejects reason-less or stale directives, so there is
# no blanket escape hatch; `make lint-fix` prints the recipe.
#
# The last step keeps modeled time in one place: bytes become cycles in
# internal/core/cost.go alone, so of the serving stack's non-test files only it
# may name the Tab. 2 rates (and internal/exp/perfexp.go, which prints and
# sweeps them for gpusim, a different model).
ONE_COST_HOME = internal/core/cost.go internal/exp/perfexp.go
lint: vet
	$(GO) run ./cmd/buddylint ./...
	@got=$$(find internal/core internal/pool internal/exp -name '*.go' -not -name '*_test.go' \
	    | xargs grep -lE 'CoreClockGHz|BandwidthGBs' | sort | xargs); \
	  [ "$$got" = "$(ONE_COST_HOME)" ] \
	    || { echo "lint: CoreClockGHz|BandwidthGBs named in [$$got], want exactly [$(ONE_COST_HOME)]"; exit 1; }
	@echo 'lint: ok'

# buddylint has no automatic fixer: findings are fixed in code, or
# suppressed one site at a time. This target documents the recipe.
lint-fix:
	@echo 'buddylint has no auto-fixer. Fix the code, or suppress a single site:'
	@echo ''
	@echo '    //nolint:buddy/<analyzer> -- reason the violation is safe here'
	@echo ''
	@echo 'The directive covers its own line and the line below it. The reason is'
	@echo 'required: the driver reports reason-less or stale directives as findings,'
	@echo 'so every suppression in the tree carries its justification.'

test:
	$(GO) test ./...

# The simplicity number: non-test Go lines outside bench/ (its own module,
# the measuring instrument rather than the program). CI echoes it, so the
# line count a PR quotes in CHANGES.md is reproducible.
lines:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs wc -l | sort -n | tail -1

# Smoke-run every example binary at reduced scale (the sources are already
# sized for seconds; serve additionally takes explicit small flags), plus
# the heal experiment at smoke fidelity — the failure-recovery path stays
# exercised end to end, not merely unit-tested. CI runs this so the
# examples stay executable, not merely compilable.
examples:
	@set -e; for d in examples/*/ ; do \
	  name=$$(basename $$d); \
	  args=""; \
	  case $$name in serve) args="-shards 2 -clients 4 -kb 64";; esac; \
	  echo "examples: run $$name $$args"; \
	  $(GO) run ./examples/$$name $$args >/dev/null; \
	done
	@echo "examples: run buddysim -exp heal -quick"
	@$(GO) run ./cmd/buddysim -exp heal -quick >/dev/null
	@echo 'examples: ok'

race:
	$(GO) test -race ./...

# Coverage: a whole-repo profile (cover.out, the CI artifact) plus a gate on
# internal/core — the driver's data path, lifecycle and migration machinery
# must not lose test coverage. The floor is the post-lifecycle-PR baseline
# (90.3% measured) minus a small margin for concurrency-dependent branches;
# raise it when coverage rises, never lower it to make a PR pass.
COVER_CORE_MIN = 89.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	$(GO) test -coverprofile=cover_core.out ./internal/core/ > /dev/null
	@total=$$($(GO) tool cover -func=cover_core.out | awk '/^total:/ { gsub("%",""); print $$3 }'); \
	  echo "internal/core coverage: $$total% (floor $(COVER_CORE_MIN)%)"; \
	  awk -v t=$$total -v m=$(COVER_CORE_MIN) 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' \
	    || { echo "cover: internal/core coverage $$total% fell below the $(COVER_CORE_MIN)% floor"; exit 1; }

# Data-path, analysis-pipeline (incl. BenchmarkAnalysisBuildRun and
# BenchmarkGenerateRun) and serving-layer benchmarks (incl.
# BenchmarkPoolServe), human-readable. Pass CPU=1,4 to see the GOMAXPROCS
# scaling of the parallel bulk and index-build paths.
CPU ?=
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(if $(CPU),-cpu $(CPU)) \
		./internal/compress/ ./internal/core/ ./internal/analysis/ ./internal/workloads/ ./internal/exp/ ./internal/pool/

# Same benchmarks as one-shot JSON, the artifact CI uploads per PR: codec
# and bulk-I/O data path plus the analysis pipeline (BenchmarkAnalysisIndex,
# BenchmarkFig3Sweep). The root-package figure benches stay excluded as too
# heavy for PR CI.
bench-json:
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime=1x -count=1 \
		./internal/compress/ ./internal/core/ ./internal/analysis/ ./internal/workloads/ ./internal/exp/ ./internal/pool/ > BENCH_pr.json

# The bench-gate pins per-codec and data-path ns/entry — and, for benchmarks
# that report them, allocs/op (the async submit path pins at 0, so a
# de-pooled future fails the gate) — so a lost fast path fails
# loudly instead of landing silently. BENCH_baseline.json holds the pinned
# numbers (written by bench-baseline); bench-gate re-runs the same
# benchmarks (min of -count 4 per benchmark) and fails when any pinned
# benchmark runs slower than baseline x tolerance. Baselines are
# machine-relative: after a deliberate perf trade-off, or on a new machine
# class, re-pin with bench-baseline in a commit that says why. BENCH_TOL
# overrides the tolerance for one run (CI uses a wider one to absorb shared
# runner heterogeneity; a lost kernel fast path is a 2-15x cliff either way).
BENCH_GATE_PKGS = ./internal/compress/ ./internal/core/ ./internal/pool/
BENCH_GATE_RX = 'BenchmarkAppendCompressed|BenchmarkDecompressInto|BenchmarkSizerBits|BenchmarkVariedStream|BenchmarkWriteEntry|BenchmarkReadEntr(y|ies)|BenchmarkFirstWrite|BenchmarkPoolServe|BenchmarkRelocate|BenchmarkSubmitWrite|BenchmarkRebalanceScan|BenchmarkQoSDequeue'
BENCH_TOL ?=
bench-gate:
	$(GO) test -run '^$$' -bench $(BENCH_GATE_RX) -benchtime 100ms -count 4 $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_baseline.json $(if $(BENCH_TOL),-tolerance $(BENCH_TOL))

bench-baseline:
	$(GO) test -run '^$$' -bench $(BENCH_GATE_RX) -benchtime 100ms -count 4 $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -write \
		  -note "make bench-baseline: min of 4 x 100ms per benchmark"

# bench/ is a Go module of its own (the repository's benchmark, see
# BENCHMARK.json), so `go build ./...` and `go test ./...` at the root never
# compile it: a change to an exported signature it calls would otherwise
# first fail when the benchmark is run — and `make lint` never sees it. This
# vets it, runs its toy-scale pass of every workload (~4 s) and runs
# buddylint over it.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run buddy/cmd/buddylint ./...

# Short fuzz pass over all six codecs: round trip plus Sizer.Bits == encoded
# bits (FuzzRoundTrip), and no decoder reading past len(comp)
# (FuzzDecompressArbitrary's canary suffix); then the stream store against
# its map oracle over arbitrary put/get sequences (FuzzStoreOps). FUZZTIME is
# per target; CI runs it at 10s on every PR.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -fuzz FuzzDecompressArbitrary -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzStoreOps -fuzztime $(FUZZTIME) ./internal/core/

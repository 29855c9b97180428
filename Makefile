# Developer entry points; CI runs the same targets.

GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-json bench-gate bench-baseline bench-smoke fuzz cover examples lines unreached

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
# The gofmt step is read-only: it lists the tracked Go files gofmt would
# rewrite and fails if there are any.
#
# The last step keeps modeled time in one place: bytes become cycles in
# internal/core/cost.go alone, so of the serving stack's non-test files only it
# may name the Tab. 2 rates (and internal/exp/perfexp.go, which prints them in
# Tab. 2 for gpusim, a different model).
#
# The step after it keeps the paper's evaluation out of the library: the
# experiment table (internal/exp) and the packages only a figure uses (the
# timing simulator, the DL training model and its networks, the heat-maps)
# must not be among the root package's non-test imports.
#
# The final step keeps the driver and the pool free of wall-clock triggers:
# no non-test file of internal/core or internal/pool arms a timer, ticks or
# sleeps, so every scan, retry and rebuild there runs at a call its caller
# made (a ticker of the caller's own, a deterministic driver's virtual
# clock). time.Now and time.Since stay allowed: RecoveryStats.Elapsed reads
# the clock, it never waits on it.
ONE_COST_HOME = internal/core/cost.go internal/exp/perfexp.go
FIGURE_PKGS = exp|gpusim|dltrain|nn|heatmap
NO_TIMERS = time\.(NewTicker|Tick|After|AfterFunc|NewTimer|Sleep)\b
lint: vet
	$(GO) run ./cmd/buddylint ./...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	  [ -z "$$unformatted" ] || { echo "lint: gofmt -l lists [$$(echo $$unformatted)]"; exit 1; }
	@got=$$(find internal/core internal/pool internal/exp -name '*.go' -not -name '*_test.go' \
	    | xargs grep -lE 'CoreClockGHz|BandwidthGBs' | sort | xargs); \
	  [ "$$got" = "$(ONE_COST_HOME)" ] \
	    || { echo "lint: CoreClockGHz|BandwidthGBs named in [$$got], want exactly [$(ONE_COST_HOME)]"; exit 1; }
	@got=$$($(GO) list -deps . | grep -xE 'buddy/internal/($(FIGURE_PKGS))' | xargs); \
	  [ -z "$$got" ] || { echo "lint: the library (go list -deps .) links [$$got]"; exit 1; }
	@got=$$(find internal/core internal/pool -name '*.go' -not -name '*_test.go' \
	    | xargs grep -nE '$(NO_TIMERS)'); \
	  [ -z "$$got" ] || { echo "lint: a timer or sleep in internal/core or internal/pool:"; echo "$$got"; exit 1; }
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

# Reachability: the non-test func declarations under internal/ (lint
# testdata aside) that no binary links. Every main — cmd/*, examples/* and
# bench/ (built inside its own module) — is built with inlining off, so each
# function a binary calls is its own text symbol; `go tool nm` lists them,
# and a declaration whose symbol is missing from every binary prints as
# file:line and symbol. An assembly function's symbol carries an .abi0
# suffix, which the listing strips so that it matches its Go declaration.
# The recipe fails when the listing grows past the entries kept on purpose,
# each with its reason:
#
#   pool (*Pool).ApplyReprofile: a reprofile plan mapped to moves through
#     the pool's one executor; kept for the fleet steward (ROADMAP 3(d)) and
#     for TestApplyReprofileRacesMigration, the race it must survive.
#   gen Sparse32.Name and Sparse32.Fill: a codec fixture four packages'
#     tests use.
#   gen SparseFP16.Name, core (*HostBackend).ResetTraffic and um
#     (*Pager).Reset: interface methods (gen.Generator, core.Backend) that
#     no binary happens to call on that type.
#   memory (*Snapshot).Validate: the structural check calibration_test.go
#     runs on every generated snapshot.
#   core (*Allocation).Migrating: the probe pool tests read a relayout in
#     flight through; no pool statistic carries it.
#   analysistest Run, moduleExports, parseWants and (*runner).load: the
#     analyzers' test harness.
#
# A new entry is deleted, given a caller, or added here with its reason and
# the ceiling raised by one.
unreached:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	  $(GO) build -gcflags=all=-l -o $$tmp/ ./cmd/... ./examples/...; \
	  (cd bench && $(GO) build -gcflags=all=-l -o $$tmp/bench .); \
	  for b in $$tmp/*; do $(GO) tool nm $$b; done \
	    | awk '$$2 == "T" && $$3 ~ /^buddy\/internal\// { sub(/\.abi0$$/, "", $$3); print $$3 }' > $$tmp/reached; \
	  find internal -name '*.go' -not -name '*_test.go' -not -path 'internal/lint/testdata/*' | sort \
	    | xargs awk '/^func / { \
	        pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); s = $$0; sub(/^func /, "", s); recv = ""; \
	        if (s ~ /^\(/) { recv = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2); \
	          n = split(recv, w, " "); recv = w[n]; \
	          recv = (recv ~ /^\*/) ? "(" recv ")." : recv "." } \
	        if (s ~ /^init\(/) next; \
	        sub(/[(\[].*/, "", s); print "buddy/" pkg "." recv s, FILENAME ":" FNR }' \
	    | awk 'NR == FNR { reached[$$1]; next } !($$1 in reached) { print $$2 ": " $$1 }' $$tmp/reached - > $$tmp/unreached; \
	  cat $$tmp/unreached; \
	  n=$$(wc -l < $$tmp/unreached); \
	  [ $$n -le 12 ] || { echo "unreached: $$n functions no binary links, over the 12 kept on purpose"; exit 1; }

# Smoke-run every example binary at reduced scale (the sources are already
# sized for seconds; serve additionally takes explicit small flags), plus
# the serve and heal experiments at smoke fidelity — the shared client round
# both drive, and heal's failure-recovery path, stay exercised end to end,
# not merely unit-tested. CI runs this so the examples stay executable, not
# merely compilable.
examples:
	@set -e; for d in examples/*/ ; do \
	  name=$$(basename $$d); \
	  args=""; \
	  case $$name in serve) args="-shards 2 -clients 4 -kb 64";; esac; \
	  echo "examples: run $$name $$args"; \
	  $(GO) run ./examples/$$name $$args >/dev/null; \
	done
	@set -e; for e in serve heal; do \
	  echo "examples: run buddysim -exp $$e -quick"; \
	  $(GO) run ./cmd/buddysim -exp $$e -quick >/dev/null; \
	done
	@echo 'examples: ok'

race:
	$(GO) test -race ./...

# Coverage: a whole-repo profile (cover.out, the CI artifact) plus a gate on
# internal/core — the driver's data path, lifecycle and migration machinery
# must not lose test coverage. The floor is where coverage stands (96.1-96.2%
# measured at -cpu 1, 2 and 4) minus a margin for concurrency-dependent
# branches, so deleting code cannot quietly take its tests' coverage with
# it; raise it when coverage rises, never lower it to make a PR pass.
COVER_CORE_MIN = 95.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	$(GO) test -coverprofile=cover_core.out ./internal/core/ > /dev/null
	@total=$$($(GO) tool cover -func=cover_core.out | awk '/^total:/ { gsub("%",""); print $$3 }'); \
	  echo "internal/core coverage: $$total% (floor $(COVER_CORE_MIN)%)"; \
	  awk -v t=$$total -v m=$(COVER_CORE_MIN) 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' \
	    || { echo "cover: internal/core coverage $$total% fell below the $(COVER_CORE_MIN)% floor"; exit 1; }

# Data-path, analysis-pipeline (incl. BenchmarkAnalysisBuildRun and
# BenchmarkGenerateRun), synthesis-kernel (BenchmarkWeights32Fill) and
# serving-layer benchmarks (incl. BenchmarkPoolServe), human-readable. Pass CPU=1,4 to see the GOMAXPROCS
# scaling of the parallel bulk and index-build paths.
CPU ?=
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(if $(CPU),-cpu $(CPU)) \
		./internal/compress/ ./internal/core/ ./internal/analysis/ ./internal/gen/ ./internal/workloads/ ./internal/exp/ ./internal/pool/

# Same benchmarks as one-shot JSON, the artifact CI uploads per PR: codec
# and bulk-I/O data path plus the analysis pipeline (BenchmarkAnalysisIndex,
# BenchmarkFig3Sweep). The root-package figure benches stay excluded as too
# heavy for PR CI.
bench-json:
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime=1x -count=1 \
		./internal/compress/ ./internal/core/ ./internal/analysis/ ./internal/gen/ ./internal/workloads/ ./internal/exp/ ./internal/pool/ > BENCH_pr.json

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
BENCH_GATE_RX = 'BenchmarkAppendCompressed|BenchmarkDecompressInto|BenchmarkSizerBits|BenchmarkVaried(Stream|Mix)|BenchmarkWriteEntry|BenchmarkReadEntr(y|ies)|BenchmarkFirstWrite|BenchmarkPoolServe|BenchmarkRelocate|BenchmarkSubmitWrite|BenchmarkRebalanceScan|BenchmarkQoSDequeue|BenchmarkClassHistogram'
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
# its map oracle over arbitrary put/get sequences (FuzzStoreOps), and the
# metadata store's line class masks against a []int oracle over arbitrary Set
# sequences (FuzzMetadataLine); and the block normal sampler against the
# scalar polar draw with math.Log, values and final RNG state, over arbitrary
# (seed, stream, count) (FuzzNormals). FUZZTIME is per target; CI runs it at
# 10s on every PR.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -fuzz FuzzDecompressArbitrary -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzStoreOps -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMetadataLine -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzNormals -fuzztime $(FUZZTIME) ./internal/gen/

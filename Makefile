GO ?= go

.PHONY: check build test vet lint test-race fuzz bench bench-safecommit bench-obs benchmark e1 loc

## check: the tier-1 gate — vet, lint, build, and test everything.
check: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the tintinvet suite — five analyzers that mechanize the
## commit-path invariants (no plan compilation or metrics lookups on the hot
## path, error-prefix convention, NULL-safe Value comparison, engine
## determinism), run in-process over every package and its tests by one
## standard-library-only driver. Violations are suppressed only by a
## reasoned //tintin:allow directive.
lint:
	$(GO) run ./cmd/tintinvet ./...

test:
	$(GO) test ./...

## test-race: the experiment harness (and everything else) under the race
## detector; slower, catches engine/state sharing mistakes. Includes the
## parallel commit-check scheduler's concurrent-safeCommit tests (plain,
## 4-worker fail-fast, and single-worker backends), the pool's plan-shape
## test, the observability tests (registry/tracer
## primitives plus concurrent group commits against Stats()/trace-ring
## readers and against the ops server's /metrics + /debug/traces
## scrapers), the WAL/fault-injection tests (crash-recovery matrix,
## torn-tail handling, fsync policies), the differential-oracle corpus
## replays, and the parser round-trip seeds.
test-race:
	$(GO) test -race ./internal/harness/ ./internal/engine/ ./internal/core/ ./internal/storage/ ./internal/sched/ ./internal/obs/ ./internal/obs/opsserver/ ./internal/wal/ ./internal/difftest/ ./internal/sqlparser/

## fuzz: budgeted smoke run of the fuzz targets — the differential oracle
## (incremental vs baseline verdicts across all commit-check modes), the
## group-commit attribution stream, the parser round-trip property, the
## injectivity of the hash-key encoding (equal keys ⇔ identical rows), the
## persisted value codec's exact round trip, and hostile bytes fed to the WAL
## record and snapshot decoders (error or decode, never panic or
## over-allocate; what decodes re-encodes to the same state).
## The checked-in corpora under testdata/fuzz/ replay as seeds on every
## plain `go test` run; this target additionally mutates for FUZZTIME each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/difftest -fuzz 'FuzzDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/difftest -fuzz 'FuzzAttribution$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlparser -fuzz 'FuzzParseRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqltypes -fuzz 'FuzzEncodeKeyInjective$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqltypes -fuzz 'FuzzValueCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -fuzz 'FuzzDecodeEvents$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -fuzz 'FuzzDecodeSnapshot$$' -fuzztime $(FUZZTIME)

## bench: the three micro-benchmarks that guard commit-path invariants
## (alloc count, metrics overhead, linearity in the update).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## bench-safecommit: just the hot-path benchmark tracked in
## BENCH_safecommit.json.
bench-safecommit:
	$(GO) test -run '^$$' -bench 'BenchmarkSafeCommit$$' -benchmem .

## bench-obs: the observability overhead guard — the hot-path safeCommit
## benchmark uninstrumented vs with the metrics registry wired; must stay
## within noise and +0 allocs (tracked under "observability" in
## BENCH_safecommit.json).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkSafeCommit$$|BenchmarkSafeCommitMetrics$$' -benchmem -count 5 .

## benchmark: the transaction benchmark BENCHMARK.json declares — five
## workloads, four end-to-end metrics each, then a layer-by-layer traced
## pass (minutes; bench/README.md has the flags for a shorter run and for
## comparing two results). Builds under .bench_build/, writes bench/out/.
benchmark:
	bash bench/run.sh

## e1: print the headline experiment grid at test scale.
e1:
	$(GO) test ./internal/harness/ -run TestE1QuickGrid -v

## loc: the size ledger — non-test Go lines per top-level
## package directory (internal/<pkg>, bench, cmd, examples), largest first,
## then the total. Counts tracked files only (git ls-files), so build output
## never inflates it.
loc:
	@git ls-files '*.go' ':(exclude)*_test.go' | awk ' \
		{ n = split($$0, p, "/"); d = (p[1] == "internal" && n > 2) ? p[2] : p[1]; \
		  while ((getline line < $$0) > 0) { lines[d]++; total++ }; close($$0) } \
		END { sort = "sort -k2,2nr -k1,1"; \
		      for (d in lines) printf "%-10s %6d\n", d, lines[d] | sort; close(sort); \
		      printf "%-10s %6d\n", "total", total }'

GO ?= go

.PHONY: check build test vet lint test-race fuzz bench bench-safecommit bench-parallel bench-obs bench-wal benchmark e1

## check: the tier-1 gate — vet, lint, build, and test everything.
check: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the tintinvet suite — six custom go/analysis analyzers that
## mechanize the commit-path invariants (no plan compilation or metrics
## lookups on the hot path, Freeze/Thaw pairing, error-prefix convention,
## NULL-safe Value comparison, engine determinism). Violations are
## suppressed only by a reasoned //tintin:allow directive.
lint:
	$(GO) build -o bin/tintinvet ./cmd/tintinvet
	$(GO) vet -vettool=bin/tintinvet ./...

test:
	$(GO) test ./...

## test-race: the experiment harness (and everything else) under the race
## detector; slower, catches engine/state sharing mistakes. Includes the
## parallel commit-check scheduler's concurrent-safeCommit tests, the
## intra-view partitioned-check tests (partition parity + concurrent
## partitioned commits), the observability tests (registry/tracer
## primitives plus concurrent group commits against Stats()/trace-ring
## readers and against the ops server's /metrics + /debug/traces
## scrapers), the WAL/fault-injection tests (crash-recovery matrix,
## torn-tail handling, fsync policies), the differential-oracle corpus
## replays, and the parser round-trip seeds.
test-race:
	$(GO) test -race ./internal/harness/ ./internal/engine/ ./internal/core/ ./internal/storage/ ./internal/sched/ ./internal/obs/ ./internal/obs/opsserver/ ./internal/wal/ ./internal/difftest/ ./internal/sqlparser/

## fuzz: budgeted smoke run of the fuzz targets — the differential oracle
## (incremental vs baseline verdicts across all commit-check modes), the
## group-commit attribution stream, the parser round-trip property, and the
## injectivity of the hash-key encoding (equal keys ⇔ identical rows).
## The checked-in corpora under testdata/fuzz/ replay as seeds on every
## plain `go test` run; this target additionally mutates for FUZZTIME each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/difftest -fuzz 'FuzzDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/difftest -fuzz 'FuzzAttribution$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlparser -fuzz 'FuzzParseRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqltypes -fuzz 'FuzzEncodeKeyInjective$$' -fuzztime $(FUZZTIME)

## bench: the full benchmark families (reduced scales; minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## bench-safecommit: just the hot-path benchmark tracked in
## BENCH_safecommit.json.
bench-safecommit:
	$(GO) test -run '^$$' -bench 'BenchmarkSafeCommit$$' -benchmem .

## bench-parallel: the parallel commit-check scaling curves (1/2/4/8
## workers over the multi-assertion workload) — both the unsplit view-task
## curve and the split-enabled curve (intra-view partitioning in auto
## mode) — tracked in BENCH_safecommit.json.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkSafeCommitParallel' -benchmem .

## bench-obs: the observability overhead guard — the hot-path safeCommit
## benchmark uninstrumented vs with the metrics registry wired; must stay
## within noise and +0 allocs (tracked under "observability" in
## BENCH_safecommit.json).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkSafeCommit$$|BenchmarkSafeCommitMetrics$$' -benchmem -count 5 .

## bench-wal: the durability cost of a commit — the full safeCommit+apply
## cycle with the WAL off vs on under each fsync policy (off/interval/
## always); the deltas are tracked under "durability" in
## BENCH_safecommit.json.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkSafeCommitWAL' -benchmem -count 3 .

## benchmark: the transaction benchmark BENCHMARK.json declares — five
## workloads, four end-to-end metrics each, then a layer-by-layer traced
## pass (minutes; bench/README.md has the flags for a shorter run and for
## comparing two results). Builds under .bench_build/, writes bench/out/.
benchmark:
	bash bench/run.sh

## e1: print the headline experiment grid at test scale.
e1:
	$(GO) test ./internal/harness/ -run TestE1QuickGrid -v

// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure (see DESIGN.md's experiment index):
//
//	BenchmarkE1Tintin / BenchmarkE1Baseline — the §1/§4 headline grid
//	BenchmarkE2PerAssertion                 — assertions of different complexity
//	BenchmarkE3TrivialSkip                  — the trivial-emptiness discard
//	BenchmarkE4Ablations                    — semantic-optimization ablations
//
// Scales are reduced relative to cmd/tintinbench so `go test -bench=.`
// completes in minutes; set TINTIN_BENCH_ORDERS_PER_GB to change. The
// measured quantity matches the paper's: the time safeCommit spends checking
// the incremental views (TINTIN) vs evaluating the original assertion
// queries on the updated database (non-incremental).
package tintin_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/obs"
	"tintin/internal/tpch"
	"tintin/internal/wal"
)

func ordersPerGB() int {
	if s := os.Getenv("TINTIN_BENCH_ORDERS_PER_GB"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 20000
}

// fixture is a prepared database + tool + staged update, shared across
// benchmark iterations.
type fixture struct {
	tool *core.Tool
	gen  *tpch.Generator
	bl   *baseline.Checker
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[string]*fixture{}
)

func getFixture(b *testing.B, gb int, opts core.Options, key string, assertions []string) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	id := fmt.Sprintf("%d|%s", gb, key)
	if f, ok := fixtures[id]; ok {
		return f
	}
	scale := tpch.ScaleOrders(fmt.Sprintf("%dGB", gb), gb*ordersPerGB())
	db, gen, err := tpch.NewDatabase("tpc", scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	tool := core.New(db, opts)
	if err := tool.Install(); err != nil {
		b.Fatal(err)
	}
	for _, a := range assertions {
		if _, err := tool.AddAssertion(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := gen.PrewarmIndexes(); err != nil {
		b.Fatal(err)
	}
	bl, err := baseline.New(db, assertions)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{tool: tool, gen: gen, bl: bl}
	fixtures[id] = f
	return f
}

func stageUpdate(b *testing.B, f *fixture, mb int) *tpch.Update {
	b.Helper()
	u, err := f.gen.CleanUpdateMB(mb)
	if err != nil {
		b.Fatal(err)
	}
	if err := u.Stage(f.tool.DB()); err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkE1Tintin measures the incremental check over the E1 grid.
func BenchmarkE1Tintin(b *testing.B) {
	for _, gb := range []int{1, 2, 3, 4, 5} {
		for _, mb := range []int{1, 5} {
			b.Run(fmt.Sprintf("%dGB/%dMB", gb, mb), func(b *testing.B) {
				f := getFixture(b, gb, core.DefaultOptions(), "e1", []string{tpch.AssertionAtLeastOneLineItem})
				stageUpdate(b, f, mb)
				defer f.tool.DB().TruncateEvents()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := f.tool.Check()
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Violations) != 0 {
						b.Fatal("clean workload flagged")
					}
				}
			})
		}
	}
}

// BenchmarkE1Baseline measures the non-incremental check (original
// assertion query on the post-update state) over the same grid.
func BenchmarkE1Baseline(b *testing.B) {
	for _, gb := range []int{1, 2, 3, 4, 5} {
		for _, mb := range []int{1, 5} {
			b.Run(fmt.Sprintf("%dGB/%dMB", gb, mb), func(b *testing.B) {
				f := getFixture(b, gb, core.DefaultOptions(), "e1", []string{tpch.AssertionAtLeastOneLineItem})
				u := stageUpdate(b, f, mb)
				// Build the post-state once: the baseline measures query
				// time, not the apply.
				shadow := f.tool.DB().Clone()
				if err := shadow.ApplyEvents(); err != nil {
					b.Fatal(err)
				}
				blShadow, err := baseline.New(shadow, []string{tpch.AssertionAtLeastOneLineItem})
				if err != nil {
					b.Fatal(err)
				}
				f.tool.DB().TruncateEvents()
				_ = u
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := blShadow.Check()
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Violations) != 0 {
						b.Fatal("clean workload flagged")
					}
				}
			})
		}
	}
}

// BenchmarkE2PerAssertion measures TINTIN's check per assertion complexity
// class (largest scale, 1MB update).
func BenchmarkE2PerAssertion(b *testing.B) {
	names := []string{
		"positiveQuantity", "positiveAvailQty", "orderHasCustomer",
		"lineItemHasOrder", "atLeastOneLineItem", "supplierSellsSomething",
		"customerNationInRegion",
	}
	for i, sql := range tpch.ComplexityAssertions() {
		b.Run(names[i], func(b *testing.B) {
			f := getFixture(b, 2, core.DefaultOptions(), "e2-"+names[i], []string{sql})
			stageUpdate(b, f, 1)
			defer f.tool.DB().TruncateEvents()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				if _, err := f.tool.Check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3TrivialSkip measures the cost of a safeCommit check when the
// update cannot affect any assertion (everything skipped) vs when it can.
func BenchmarkE3TrivialSkip(b *testing.B) {
	f := getFixture(b, 1, core.DefaultOptions(), "e3", tpch.ComplexityAssertions())
	b.Run("part-only-update", func(b *testing.B) {
		u, err := f.gen.SingleTableUpdate("part", 1000)
		if err != nil {
			b.Fatal(err)
		}
		if err := u.Stage(f.tool.DB()); err != nil {
			b.Fatal(err)
		}
		defer f.tool.DB().TruncateEvents()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := f.tool.Check()
			if err != nil {
				b.Fatal(err)
			}
			if res.ViewsChecked != 0 {
				b.Fatal("expected all views skipped")
			}
		}
	})
	b.Run("mixed-update", func(b *testing.B) {
		stageUpdate(b, f, 1)
		defer f.tool.DB().TruncateEvents()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.tool.Check(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4Ablations measures the check with each optimization disabled.
func BenchmarkE4Ablations(b *testing.B) {
	full := core.DefaultOptions()
	noFK := full
	noFK.EDC.FKOptimization = false
	noSub := full
	noSub.EDC.Subsumption = false
	noSkip := full
	noSkip.SkipEmptyEventViews = false
	noIdx := full
	noIdx.DisableIndexProbes = true
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", full},
		{"noFKDiscard", noFK},
		{"noSubsumption", noSub},
		{"noEventSkip", noSkip},
		{"noIndexProbes", noIdx},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			f := getFixture(b, 1, v.opts, "e4-"+v.name, tpch.ComplexityAssertions())
			stageUpdate(b, f, 1)
			defer f.tool.DB().TruncateEvents()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.tool.Check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Aggregates measures the aggregate extension (COUNT/SUM
// assertions, the paper's §5 future work) against the same update.
func BenchmarkE5Aggregates(b *testing.B) {
	aggs := tpch.AggregateAssertions()
	for i, name := range []string{"countCap", "sumCap"} {
		sql := aggs[i]
		b.Run(name, func(b *testing.B) {
			f := getFixture(b, 1, core.DefaultOptions(), "e5-"+name, []string{sql})
			stageUpdate(b, f, 1)
			defer f.tool.DB().TruncateEvents()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := f.tool.Check()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatal("clean workload flagged")
				}
			}
		})
	}
}

// BenchmarkCompileAssertion measures the full assertion → denial → EDC →
// SQL-views pipeline (compile time, not check time).
func BenchmarkCompileAssertion(b *testing.B) {
	f := getFixture(b, 1, core.DefaultOptions(), "compile", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(`CREATE ASSERTION bench%d CHECK(
			NOT EXISTS(
				SELECT * FROM orders AS o
				WHERE NOT EXISTS (
					SELECT * FROM lineitem AS l
					WHERE l.l_orderkey = o.o_orderkey)))`, i)
		a, err := f.tool.AddAssertion(sql)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := f.tool.DropAssertion(a.Name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSafeCommit measures the commit-time hot path this repo
// optimizes: a safeCommit check over a small staged delta with a warm plan
// cache and pre-built probe indexes. It also enforces the subsystem's
// contract — the loop must run entirely on cached plans (no compilations,
// hence no SQL re-parsing, after installation). Baseline recorded in
// BENCH_safecommit.json.
func BenchmarkSafeCommit(b *testing.B) {
	f := getFixture(b, 1, core.DefaultOptions(), "safecommit", []string{tpch.AssertionAtLeastOneLineItem})
	u, err := f.gen.CleanUpdate("small", 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := u.Stage(f.tool.DB()); err != nil {
		b.Fatal(err)
	}
	defer f.tool.DB().TruncateEvents()
	// Warm: one untimed check compiles anything installation left cold.
	if _, err := f.tool.Check(); err != nil {
		b.Fatal(err)
	}
	warm := f.tool.Engine().PlanCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.tool.Check()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatal("clean delta flagged")
		}
	}
	b.StopTimer()
	after := f.tool.Engine().PlanCacheStats()
	if after.Misses != warm.Misses {
		b.Fatalf("commit-time checking compiled plans: misses %d -> %d", warm.Misses, after.Misses)
	}
}

// BenchmarkSafeCommitBalancedDeletes measures the check of a balanced update
// (half deletions of whole orders, half new orders) against nine assertions:
// the complexity suite plus the two aggregates. Every view of a
// deleted-from table subtracts del_T from T, a row-identity anti-join; the
// check stays linear in the update only if that anti-join probes del_T's
// identity index, so ns/op must grow about 5×, not 25×, from 1000 to 5000
// rows.
func BenchmarkSafeCommitBalancedDeletes(b *testing.B) {
	assertions := append(tpch.ComplexityAssertions(), tpch.AggregateAssertions()...)
	for _, rows := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			f := getFixture(b, 1, core.DefaultOptions(), "balanced", assertions)
			u, err := f.gen.BalancedUpdate("balanced", rows)
			if err != nil {
				b.Fatal(err)
			}
			if err := u.Stage(f.tool.DB()); err != nil {
				b.Fatal(err)
			}
			defer f.tool.DB().TruncateEvents()
			if _, err := f.tool.Check(); err != nil { // warm, untimed
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := f.tool.Check()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatal("clean balanced update flagged")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(u.Rows()), "ns/row")
		})
	}
}

// BenchmarkSafeCommitMetrics is BenchmarkSafeCommit with the full metrics
// surface wired (registry, per-view histograms, plan-cache gauges) — the
// observability overhead guard. Instrumentation is atomics behind direct
// pointers, so this must stay within noise (~5%) and +0 allocs of the
// uninstrumented benchmark; the measured delta is recorded under
// "observability" in BENCH_safecommit.json.
func BenchmarkSafeCommitMetrics(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	f := getFixture(b, 1, opts, "safecommit-metrics", []string{tpch.AssertionAtLeastOneLineItem})
	u, err := f.gen.CleanUpdate("small", 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := u.Stage(f.tool.DB()); err != nil {
		b.Fatal(err)
	}
	defer f.tool.DB().TruncateEvents()
	if _, err := f.tool.Check(); err != nil {
		b.Fatal(err)
	}
	// The fixture (and its registry) outlives this invocation, so measure
	// the timed loop's contribution as a counter delta on the tool's own
	// registry, not on opts.Metrics (a fresh one per invocation).
	before := f.tool.Metrics().Snapshot().Counters["tintin_views_checked_total"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.tool.Check()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatal("clean delta flagged")
		}
	}
	b.StopTimer()
	// The loop must have fed the registry: checks are only "free" because
	// they're atomic increments, not because they're skipped.
	after := f.tool.Metrics().Snapshot().Counters["tintin_views_checked_total"]
	if after-before < int64(b.N) {
		b.Fatalf("metrics not recorded during timed loop: views_checked delta = %d over %d iters", after-before, b.N)
	}
}

// BenchmarkSafeCommitParallel measures the multi-assertion commit check
// with the parallel scheduler at 1/2/4/8 workers (1 = the pool's single
// worker, run inline). The workload is the full complexity-assertion set over a 1MB staged
// update, where per-assertion checks are independent and the fan-out pays.
// Results tracked in BENCH_safecommit.json; the plan-cache contract is
// enforced here too (worker clones are not compilations).
//
// Wall-clock scaling needs real cores: on a single-CPU box the curve is
// flat and only measures scheduler overhead (which should stay within a
// few percent of workers=1). A view is the unit of work, so the speedup
// ceiling is bounded by task skew: the slowest single view (see -perview)
// is the critical path.
func BenchmarkSafeCommitParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Workers = workers
			f := getFixture(b, 1, opts, fmt.Sprintf("safecommit-par-%d", workers), tpch.ComplexityAssertions())
			stageUpdate(b, f, 1)
			defer f.tool.DB().TruncateEvents()
			if _, err := f.tool.Check(); err != nil {
				b.Fatal(err)
			}
			warm := f.tool.Engine().PlanCacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := f.tool.Check()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatal("clean workload flagged")
				}
			}
			b.StopTimer()
			after := f.tool.Engine().PlanCacheStats()
			if after.Misses != warm.Misses {
				b.Fatalf("parallel commit-time checking compiled plans: misses %d -> %d", warm.Misses, after.Misses)
			}
		})
	}
}

// BenchmarkSafeCommitFailFast measures the accept/reject fast path on a
// violating update: FailFast stops every view at its first violating row,
// so detection cost stays flat no matter how many tuples violate. The
// "full" variant materializes every violation for comparison.
func BenchmarkSafeCommitFailFast(b *testing.B) {
	for _, ff := range []bool{false, true} {
		name := "full"
		if ff {
			name = "failfast"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.FailFast = ff
			f := getFixture(b, 1, opts, fmt.Sprintf("safecommit-ff-%v", ff), []string{tpch.AssertionAtLeastOneLineItem})
			u, err := f.gen.ViolatingUpdate("ffbad", 1000, 50)
			if err != nil {
				b.Fatal(err)
			}
			if err := u.Stage(f.tool.DB()); err != nil {
				b.Fatal(err)
			}
			defer f.tool.DB().TruncateEvents()
			if _, err := f.tool.Check(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := f.tool.Check()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) == 0 {
					b.Fatal("violating workload not flagged")
				}
				if ff {
					for _, v := range res.Violations {
						if len(v.Rows) != 1 {
							b.Fatalf("FailFast returned %d rows", len(v.Rows))
						}
					}
				}
			}
		})
	}
}

// walBenchTool builds a fresh (uncached) tool for the durability benchmark:
// the WAL directory is per-run scratch space, so the fixture cache would
// hand later runs a tool whose directory is gone. Checkpointing is disabled
// to isolate the steady-state cost the WAL adds to every commit — the
// append plus whatever the fsync policy charges — from the periodic
// snapshot, whose cost is amortized and scale-dependent.
func walBenchTool(b *testing.B, durable bool, policy wal.SyncPolicy) (*core.Tool, *tpch.Generator) {
	b.Helper()
	scale := tpch.ScaleOrders("1GB", ordersPerGB())
	db, gen, err := tpch.NewDatabase("tpc", scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	if durable {
		opts.WALDir = b.TempDir()
		opts.Fsync = policy
		opts.CheckpointEvery = -1
	}
	tool := core.New(db, opts)
	if err := tool.Install(); err != nil {
		b.Fatal(err)
	}
	if _, err := tool.AddAssertion(tpch.AssertionAtLeastOneLineItem); err != nil {
		b.Fatal(err)
	}
	if err := gen.PrewarmIndexes(); err != nil {
		b.Fatal(err)
	}
	if durable {
		if err := tool.EnableDurability(); err != nil {
			b.Fatal(err)
		}
	}
	return tool, gen
}

// BenchmarkSafeCommitWAL measures the commit-latency cost of durability:
// the BenchmarkSafeCommitApply cycle (stage → check → apply) with the WAL
// off and with it on under each fsync policy. The off/wal-fsync-off delta
// is the pure encode+append overhead; wal-fsync-always adds one fsync per
// commit, the full durability guarantee. Recorded under "durability" in
// BENCH_safecommit.json (make bench-wal).
func BenchmarkSafeCommitWAL(b *testing.B) {
	variants := []struct {
		name    string
		durable bool
		policy  wal.SyncPolicy
	}{
		{"off", false, wal.SyncAlways},
		{"wal-fsync-off", true, wal.SyncOff},
		{"wal-fsync-interval", true, wal.SyncInterval},
		{"wal-fsync-always", true, wal.SyncAlways},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			tool, gen := walBenchTool(b, v.durable, v.policy)
			defer tool.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u, err := gen.CleanUpdateMB(1)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := u.Stage(tool.DB()); err != nil {
					b.Fatal(err)
				}
				res, err := tool.SafeCommit()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Committed {
					b.Fatal("clean update rejected")
				}
			}
			b.StopTimer()
		})
	}
}

// BenchmarkSafeCommitApply measures a full safeCommit cycle including the
// apply step (stage → check → commit), the end-to-end transaction cost.
func BenchmarkSafeCommitApply(b *testing.B) {
	f := getFixture(b, 1, core.DefaultOptions(), "apply", []string{tpch.AssertionAtLeastOneLineItem})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, err := f.gen.CleanUpdateMB(1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := u.Stage(f.tool.DB()); err != nil {
			b.Fatal(err)
		}
		res, err := f.tool.SafeCommit()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Committed {
			b.Fatal("clean update rejected")
		}
	}
}

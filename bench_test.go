// Micro-benchmarks that guard commit-path invariants:
//
//	BenchmarkSafeCommit                — 16 allocs/op, zero plan compilations
//	BenchmarkSafeCommitMetrics         — the metrics surface adds +0 allocs
//	BenchmarkSafeCommitBalancedDeletes — the check stays linear in the update
//
// They are not the performance record. The paper's experiments E1–E5 are
// internal/harness and cmd/tintinbench (README, "Running the experiments");
// end-to-end transaction cost is the bench/ benchmark.
package tintin_test

import (
	"fmt"
	"sync"
	"testing"

	"tintin/internal/core"
	"tintin/internal/obs"
	"tintin/internal/tpch"
)

// fixtureOrders is every fixture's data scale.
const fixtureOrders = 20000

// fixture is a prepared database + tool, shared across benchmark
// iterations.
type fixture struct {
	tool *core.Tool
	gen  *tpch.Generator
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[string]*fixture{}
)

func getFixture(b *testing.B, opts core.Options, key string, assertions []string) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	scale := tpch.ScaleOrders("1GB", fixtureOrders)
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
	f := &fixture{tool: tool, gen: gen}
	fixtures[key] = f
	return f
}

// BenchmarkSafeCommit measures the commit-time hot path this repo
// optimizes: a safeCommit check over a small staged delta with a warm plan
// cache and pre-built probe indexes. It also enforces the subsystem's
// contract — the loop must run entirely on cached plans (no compilations,
// hence no SQL re-parsing, after installation). Baseline recorded in
// BENCH_safecommit.json.
func BenchmarkSafeCommit(b *testing.B) {
	f := getFixture(b, core.DefaultOptions(), "safecommit", []string{tpch.AssertionAtLeastOneLineItem})
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
			f := getFixture(b, core.DefaultOptions(), "balanced", assertions)
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
	f := getFixture(b, opts, "safecommit-metrics", []string{tpch.AssertionAtLeastOneLineItem})
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

package core_test

import (
	"reflect"
	"testing"

	"tintin/internal/core"
	"tintin/internal/core/coretest"
	"tintin/internal/sqltypes"
)

// bankUpdates is a deterministic mixed workload over the coretest banking
// schema: clean commits, violations of each assertion, and a
// multi-statement update.
var bankUpdates = []string{
	`INSERT INTO transfer VALUES (1001, 100, 200, 10.0)`,
	`INSERT INTO transfer VALUES (1002, 100, 300, 5.0)`, // closed endpoint
	`INSERT INTO transfer VALUES (1003, 100, 200, 0.0)`, // non-positive amount
	`INSERT INTO account VALUES (400, 99, FALSE)`,       // unknown customer
	`INSERT INTO customer VALUES (3, 'Edsger');
	 INSERT INTO account VALUES (400, 3, FALSE);
	 INSERT INTO transfer VALUES (1004, 200, 400, 12.5)`,
	`DELETE FROM account WHERE a_id = 100;
	 INSERT INTO account VALUES (100, 1, TRUE);
	 INSERT INTO transfer VALUES (1005, 100, 200, 1.0)`, // 100 closed + used
}

// runBankWorkload executes the update sequence, collecting the
// CommitResult of each safeCommit with timing fields zeroed (they are the
// only legitimately nondeterministic part). ViewDurations keeps its view
// names and order — those must match across paths — with the measured
// times zeroed.
func runBankWorkload(t testing.TB, tool *core.Tool) []*core.CommitResult {
	t.Helper()
	var out []*core.CommitResult
	for _, sql := range bankUpdates {
		if _, err := tool.Engine().ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		res.Duration = 0
		res.NormalizeDuration = 0
		for i := range res.ViewDurations {
			res.ViewDurations[i].Duration = 0
		}
		out = append(out, res)
	}
	return out
}

// TestParallelCheckParity is the scheduler's core contract: the parallel
// path produces CommitResults identical to the serial path — same
// verdicts, same violations in the same deterministic order, same
// skip/check accounting — for every update in a mixed workload.
func TestParallelCheckParity(t *testing.T) {
	serial := runBankWorkload(t, coretest.NewBankTool(t, 1))
	for _, workers := range []int{2, 4, 8} {
		parallel := runBankWorkload(t, coretest.NewBankTool(t, workers))
		if len(serial) != len(parallel) {
			t.Fatalf("workers=%d: %d results vs %d serial", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("workers=%d update %d: parallel result diverges\nserial:   %+v\nparallel: %+v",
					workers, i, serial[i], parallel[i])
			}
		}
	}
}

// TestParallelCheckDeterministic re-runs the same violating workload and
// requires identical violation ordering every time: the merge is by
// assertion order, not completion order.
func TestParallelCheckDeterministic(t *testing.T) {
	var first []*core.CommitResult
	for run := 0; run < 5; run++ {
		got := runBankWorkload(t, coretest.NewBankTool(t, 4))
		if first == nil {
			first = got
			continue
		}
		for i := range first {
			if !reflect.DeepEqual(first[i], got[i]) {
				t.Fatalf("run %d update %d: nondeterministic result\nfirst: %+v\ngot:   %+v",
					run, i, first[i], got[i])
			}
		}
	}
}

// TestParallelSafeCommitUsesPlanCache extends the plan-cache contract to
// the parallel path: commit-time checking with workers compiles zero plans
// (worker clones don't count as compilations) and never falls back to
// per-execution planning.
func TestParallelSafeCommitUsesPlanCache(t *testing.T) {
	tool := coretest.NewBankTool(t, 4)
	install := tool.Engine().PlanCacheStats()
	if install.Misses == 0 {
		t.Fatal("installation compiled no plans")
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	fv := func(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }
	for round := int64(0); round < 5; round++ {
		if err := tool.DB().Insert("transfer", sqltypes.Row{iv(2000 + round), iv(100), iv(200), fv(3.5)}); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("round %d: clean transfer rejected: %v", round, res.Violations)
		}
	}
	after := tool.Engine().PlanCacheStats()
	if after.Misses != install.Misses {
		t.Fatalf("parallel safeCommit compiled plans: misses %d -> %d", install.Misses, after.Misses)
	}
	if after.Invalidations != install.Invalidations {
		t.Fatalf("parallel safeCommit invalidated plans: %d -> %d", install.Invalidations, after.Invalidations)
	}
}

// TestParallelCheckFreezesDB: during a parallel fan-out the database is an
// immutable snapshot; a write attempted while frozen fails loudly rather
// than racing the workers. (Freeze is lifted again by the time SafeCommit
// applies events, so the commit itself must succeed.)
func TestParallelCheckFreezesDB(t *testing.T) {
	tool := coretest.NewBankTool(t, 4)
	db := tool.DB()
	db.Freeze()
	if err := db.Insert("customer", sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewString("X")}); err == nil {
		t.Fatal("insert on frozen database succeeded")
	}
	db.Thaw()
	if _, err := tool.Engine().ExecSQL(`INSERT INTO transfer VALUES (3000, 100, 200, 2.0)`); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("clean transfer rejected: %v", res.Violations)
	}
	if db.Frozen() {
		t.Fatal("database left frozen after safeCommit")
	}
}

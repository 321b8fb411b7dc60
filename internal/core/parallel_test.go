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

// stageTransfers stages n transfers through the capture layer, every 7th
// one violating positiveAmount (amount 0) and every 11th one referencing
// the closed account 300, so several views are violated by several rows.
func stageTransfers(t testing.TB, tool *core.Tool, n int) {
	t.Helper()
	iv := sqltypes.NewInt
	fv := sqltypes.NewFloat
	for i := 0; i < n; i++ {
		amount := 1.5
		if i%7 == 0 {
			amount = 0
		}
		to := int64(200)
		if i%11 == 0 {
			to = 300
		}
		row := sqltypes.Row{iv(int64(5000 + i)), iv(100), iv(to), fv(amount)}
		if err := tool.DB().Insert("transfer", row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailFast: with FailFast every violated view reports exactly one
// witness row — the first the full check finds — on one worker and on a
// pool of four, and clean updates still commit.
func TestFailFast(t *testing.T) {
	full := coretest.NewBankTool(t, 1)
	stageTransfers(t, full, 100)
	want, err := full.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) == 0 {
		t.Fatal("fixture staged no violations")
	}

	for _, workers := range []int{1, 4} {
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.FailFast = true
		tool := coretest.NewBankToolOpts(t, opts)
		stageTransfers(t, tool, 100)
		got, err := tool.Check()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("workers=%d: %d violated views, full check found %d", workers, len(got.Violations), len(want.Violations))
		}
		for i, v := range got.Violations {
			if len(v.Rows) != 1 {
				t.Fatalf("workers=%d: view %s returned %d rows under FailFast", workers, v.View, len(v.Rows))
			}
			if !reflect.DeepEqual(v.Rows[0], want.Violations[i].Rows[0]) {
				t.Fatalf("workers=%d: view %s witness %v, full check's first row %v", workers, v.View, v.Rows[0], want.Violations[i].Rows[0])
			}
		}

		// A clean update still commits under FailFast.
		tool.DB().TruncateEvents()
		if err := tool.DB().Insert("transfer", sqltypes.Row{
			sqltypes.NewInt(9000), sqltypes.NewInt(100), sqltypes.NewInt(200), sqltypes.NewFloat(3.0)}); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("workers=%d: clean transfer rejected under FailFast: %v", workers, res.Violations)
		}
	}
}

// TestViewDurationsRecorded: every pool width records one duration per
// evaluated view, in check order, with non-negative values.
func TestViewDurationsRecorded(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tool := coretest.NewBankTool(t, workers)
		stageTransfers(t, tool, 10)
		res, err := tool.Check()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ViewDurations) != res.ViewsChecked {
			t.Fatalf("workers=%d: %d durations for %d checked views", workers, len(res.ViewDurations), res.ViewsChecked)
		}
		for _, vd := range res.ViewDurations {
			if vd.View == "" || vd.Duration < 0 {
				t.Fatalf("workers=%d: bad view duration %+v", workers, vd)
			}
		}
		tool.DB().TruncateEvents()
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

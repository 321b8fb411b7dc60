package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"tintin/internal/core"
	"tintin/internal/core/coretest"
	"tintin/internal/sqltypes"
)

// splitTool builds a bank tool whose parallel checks split every view with
// any cost estimate: SplitThreshold of 1ns makes the splitter cut each
// estimated view into `workers` partitions from the second check on.
func splitTool(t testing.TB, workers int) *core.Tool {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = workers
	opts.SplitThreshold = 1
	return coretest.NewBankToolOpts(t, opts)
}

// zeroDurations strips the legitimately nondeterministic timing fields,
// keeping the view names and their order comparable.
func zeroDurations(res *core.CommitResult) {
	res.Duration = 0
	res.NormalizeDuration = 0
	for i := range res.ViewDurations {
		res.ViewDurations[i].Duration = 0
	}
}

// stageTransfers stages n transfers through the capture layer, every 7th
// one violating positiveAmount (amount 0) and every 11th one referencing
// the closed account 300, so violations land in several partitions of the
// ins_transfer scan with ragged spacing.
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

// TestPartitionedCheckParity is the splitter's core contract: with
// splitting forced on every view, Check() results — violations, their row
// order, the evaluated-view list and the skip accounting — are identical
// to the serial path at every partition count, over a delta large enough
// that partitions are ragged and violations straddle them.
func TestPartitionedCheckParity(t *testing.T) {
	const rounds = 3 // round 1 primes the cost model; later rounds split
	serialTool := coretest.NewBankTool(t, 1)
	var serial []*core.CommitResult
	stageTransfers(t, serialTool, 100)
	for r := 0; r < rounds; r++ {
		res, err := serialTool.Check()
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(res)
		serial = append(serial, res)
	}
	if len(serial[rounds-1].Violations) == 0 {
		t.Fatal("fixture staged no violations; parity test would be vacuous")
	}

	for _, k := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			tool := splitTool(t, k)
			stageTransfers(t, tool, 100)
			warm := tool.Engine().PlanCacheStats()
			for r := 0; r < rounds; r++ {
				res, err := tool.Check()
				if err != nil {
					t.Fatal(err)
				}
				zeroDurations(res)
				if !reflect.DeepEqual(res, serial[r]) {
					t.Fatalf("round %d: split result diverges\nserial: %+v\nsplit:  %+v", r, serial[r], res)
				}
			}
			after := tool.Engine().PlanCacheStats()
			if after.Misses != warm.Misses {
				t.Fatalf("split checking compiled plans: misses %d -> %d", warm.Misses, after.Misses)
			}
		})
	}
}

// TestPartitionedWorkloadParity runs the full mixed bank workload (commits,
// rejections, multi-statement updates) through the forced splitter and
// demands results identical to the serial path — the safeCommit-level
// extension of the parity contract.
func TestPartitionedWorkloadParity(t *testing.T) {
	serial := runBankWorkload(t, coretest.NewBankTool(t, 1))
	for _, k := range []int{2, 3, 8} {
		split := runBankWorkload(t, splitTool(t, k))
		for i := range serial {
			if !reflect.DeepEqual(serial[i], split[i]) {
				t.Errorf("k=%d update %d: split result diverges\nserial: %+v\nsplit:  %+v",
					k, i, serial[i], split[i])
			}
		}
	}
}

// TestFailFast: with FailFast every violated view reports exactly one
// witness row — the first the serial check would find — on both the serial
// and the split parallel path, and clean updates still commit.
func TestFailFast(t *testing.T) {
	ffOpts := core.DefaultOptions()
	ffOpts.FailFast = true

	full := coretest.NewBankTool(t, 1)
	stageTransfers(t, full, 100)
	want, err := full.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) == 0 {
		t.Fatal("fixture staged no violations")
	}

	check := func(name string, tool *core.Tool) {
		t.Helper()
		stageTransfers(t, tool, 100)
		got, err := tool.Check()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s: %d violated views, full check found %d", name, len(got.Violations), len(want.Violations))
		}
		for i, v := range got.Violations {
			if len(v.Rows) != 1 {
				t.Fatalf("%s: view %s returned %d rows under FailFast", name, v.View, len(v.Rows))
			}
			if !reflect.DeepEqual(v.Rows[0], want.Violations[i].Rows[0]) {
				t.Fatalf("%s: view %s witness %v, serial first row %v", name, v.View, v.Rows[0], want.Violations[i].Rows[0])
			}
		}
	}

	check("serial", coretest.NewBankToolOpts(t, ffOpts))

	ffSplit := ffOpts
	ffSplit.Workers = 4
	ffSplit.SplitThreshold = 1
	tool := coretest.NewBankToolOpts(t, ffSplit)
	stageTransfers(t, tool, 100)
	if _, err := tool.Check(); err != nil { // prime the cost model so round 2 splits
		t.Fatal(err)
	}
	tool.DB().TruncateEvents()
	check("split", tool)

	// A clean update still commits under FailFast.
	ff := coretest.NewBankToolOpts(t, ffOpts)
	if err := ff.DB().Insert("transfer", sqltypes.Row{
		sqltypes.NewInt(9000), sqltypes.NewInt(100), sqltypes.NewInt(200), sqltypes.NewFloat(3.0)}); err != nil {
		t.Fatal(err)
	}
	res, err := ff.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("clean transfer rejected under FailFast: %v", res.Violations)
	}
}

// TestViewDurationsRecorded: both check paths record one duration per
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

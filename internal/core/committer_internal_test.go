package core

import (
	"testing"

	"tintin/internal/sched"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// newAttrTool builds a minimal schema for driving commitBatch directly: an
// account table with a positive-balance assertion, pre-seeded so deltas can
// also delete.
func newAttrTool(t *testing.T) *Tool {
	t.Helper()
	db := storage.NewDB("attr")
	tool := New(db, DefaultOptions())
	if _, err := tool.Engine().ExecSQL(`
		CREATE TABLE acct (a_id INTEGER PRIMARY KEY, a_balance REAL NOT NULL);
		INSERT INTO acct VALUES (1, 10.0), (2, 20.0);
	`); err != nil {
		t.Fatal(err)
	}
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := tool.AddAssertion(`CREATE ASSERTION positiveBalance CHECK (
		NOT EXISTS (SELECT * FROM acct AS a WHERE a.a_balance < 0))`); err != nil {
		t.Fatal(err)
	}
	return tool
}

func insDelta(id int64, balance float64) sched.Delta {
	return sched.Delta{Ops: []sched.Op{{
		Table: "acct",
		Row:   sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewFloat(balance)},
	}}}
}

// checkCounter counts safeCommit passes by wrapping Check through the
// engine's registered procedure? No — commitBatch calls SafeCommit
// directly, so the test counts Check invocations via the plan cache's hit
// counter instead: every batch/group/individual pass executes the same
// single compiled view exactly once.
func checkPasses(t *Tool) int {
	return t.Engine().PlanCacheStats().Hits
}

// TestCommitBatchAttribution: in a batch where exactly one delta violates,
// the violating rows implicate that delta alone; the clean majority commits
// in ONE group pass instead of per-delta re-checks, and the guilty delta is
// rejected with its own violation.
func TestCommitBatchAttribution(t *testing.T) {
	tool := newAttrTool(t)
	batch := []sched.Delta{
		insDelta(10, 5.0),
		insDelta(11, -7.5), // guilty: negative balance
		insDelta(12, 1.0),
		insDelta(13, 2.0),
	}
	before := checkPasses(tool)
	acks, err := tool.commitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	passes := checkPasses(tool) - before
	for i, ack := range acks {
		if ack.Err != nil {
			t.Fatalf("delta %d: unexpected error %v", i, ack.Err)
		}
		if i == 1 {
			if ack.Res.Committed {
				t.Fatal("guilty delta committed")
			}
			if len(ack.Res.Violations) != 1 || len(ack.Res.Violations[0].Rows) != 1 {
				t.Fatalf("guilty delta verdict: %+v", ack.Res.Violations)
			}
			continue
		}
		if !ack.Res.Committed {
			t.Fatalf("clean delta %d rejected: %v", i, ack.Res.Violations)
		}
	}
	// Three passes: rejected batch check, clean-group check, guilty
	// individual re-check. The old fallback paid 1 + len(batch) = 5.
	if passes != 3 {
		t.Fatalf("attribution ran %d view evaluations, want 3 (batch, group, guilty)", passes)
	}
	// The clean inserts must actually be in the base table.
	for _, id := range []int64{10, 12, 13} {
		if !tool.DB().MustTable("acct").ContainsEqual([]int{0}, []sqltypes.Value{sqltypes.NewInt(id)}) {
			t.Fatalf("clean insert %d missing from base table", id)
		}
	}
	if tool.DB().MustTable("acct").ContainsEqual([]int{0}, []sqltypes.Value{sqltypes.NewInt(11)}) {
		t.Fatal("guilty insert reached the base table")
	}
}

// TestCommitBatchAttributionAllClean: a clean batch still commits in a
// single pass (attribution never fires).
func TestCommitBatchAttributionAllClean(t *testing.T) {
	tool := newAttrTool(t)
	before := checkPasses(tool)
	acks, err := tool.commitBatch([]sched.Delta{insDelta(20, 1), insDelta(21, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		if ack.Err != nil || !ack.Res.Committed {
			t.Fatalf("delta %d: %+v err=%v", i, ack.Res, ack.Err)
		}
	}
	if got := checkPasses(tool) - before; got != 1 {
		t.Fatalf("clean batch ran %d passes, want 1", got)
	}
}

// TestCommitBatchAttributionMiss: when attribution implicates nobody the
// batch degrades to the per-delta fallback and still reaches correct
// verdicts. A delta violating via a row whose key columns never appear in
// the violation output is impossible for single-table inserts, so the miss
// is forced directly through resolveRejected with a doctored result.
func TestCommitBatchAttributionMiss(t *testing.T) {
	tool := newAttrTool(t)
	batch := []sched.Delta{insDelta(30, 3.0), insDelta(31, -1.0)}
	// Doctored rejection: violations that match no delta's key values.
	fake := &CommitResult{Violations: []Violation{{
		Assertion: "positivebalance",
		Rows:      []sqltypes.Row{{sqltypes.NewInt(999999)}},
	}}}
	acks := make([]sched.Ack[*CommitResult], len(batch))
	tool.resolveRejected(nil, batch, fake, acks)
	if !acks[0].Res.Committed {
		t.Fatalf("clean delta rejected on attribution miss: %+v", acks[0].Res)
	}
	if acks[1].Res.Committed {
		t.Fatal("guilty delta committed on attribution miss")
	}
}

// TestViolationKeySetAndImplication unit-tests the attribution primitives:
// PK values implicate, unrelated values do not.
func TestViolationKeySetAndImplication(t *testing.T) {
	tool := newAttrTool(t)
	viols := []Violation{{
		Rows: []sqltypes.Row{{sqltypes.NewInt(11), sqltypes.NewFloat(-7.5)}},
	}}
	keys := violationKeySet(viols)
	if !tool.deltaImplicated(insDelta(11, -7.5), keys) {
		t.Fatal("delta writing the violating PK not implicated")
	}
	if tool.deltaImplicated(insDelta(12, 4.0), keys) {
		t.Fatal("unrelated delta implicated")
	}
	// A float that happens to equal an int key must not cross types.
	if tool.deltaImplicated(sched.Delta{Ops: []sched.Op{{
		Table: "nosuch",
		Row:   sqltypes.Row{sqltypes.NewString("x")},
	}}}, keys) {
		t.Fatal("unknown-table delta with unrelated values implicated")
	}
}

package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tintin/internal/obs"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// newAttrTool builds a minimal schema for driving commitBatch directly: an
// account table with a positive-balance assertion, pre-seeded so deltas can
// also delete. Metrics are wired so checkPasses can count safeCommits.
func newAttrTool(t *testing.T) *Tool {
	t.Helper()
	db := storage.NewDB("attr")
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	tool := New(db, opts)
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

// checkPasses counts the safeCommit passes the tool has run, committed or
// rejected.
func checkPasses(t *Tool) int {
	return int(t.met.commits.Value() + t.met.rejects.Value())
}

// TestCommitBatchAttribution: in a batch where exactly one delta violates,
// the guilty delta is rejected with its own violation, the clean deltas
// commit, and bisection pays 1 + 2⌈log2 4⌉ = 5 passes.
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
	// The rejected batch, then [10 11] rejected and [12 13] committed, then
	// [10] committed and [11] rejected.
	if passes != 5 {
		t.Fatalf("bisection ran %d passes, want 5", passes)
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

// TestCommitBatchAttributionAllClean: a clean batch commits in a single
// pass.
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

// TestCommitBatchExact: for every batch size and guilt pattern, each
// delta's verdict from one commitBatch equals the verdict it gets committed
// alone, in submission order, on a twin tool; the two databases end equal;
// and the passes stay within min(2n−1, 1 + 2k⌈log2 n⌉) for k deltas that
// do not commit.
func TestCommitBatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := []struct {
		name   string
		guilty func(i, n int) bool
	}{
		{"none", func(i, n int) bool { return false }},
		{"first", func(i, n int) bool { return i == 0 }},
		{"last", func(i, n int) bool { return i == n-1 }},
		{"all", func(i, n int) bool { return true }},
		{"alternate", func(i, n int) bool { return i%2 == 1 }},
		{"random", func(i, n int) bool { return rng.Intn(4) == 0 }},
	}
	for _, n := range []int{1, 2, 3, 5, 8, 64} {
		for _, sh := range shapes {
			batch := make([]sched.Delta, n)
			for i := range batch {
				balance := 1.0
				if sh.guilty(i, n) {
					balance = -1
				}
				batch[i] = insDelta(int64(100+i), balance)
			}
			t.Run(fmt.Sprintf("n=%d/%s", n, sh.name), func(t *testing.T) { checkExact(t, batch) })
		}
		batch := make([]sched.Delta, n)
		for i := range batch {
			batch[i] = insDelta(int64(100+i), 1)
		}
		batch[n/2] = sched.Delta{Ops: []sched.Op{{Table: "nosuch", Row: sqltypes.Row{sqltypes.NewInt(1)}}}}
		t.Run(fmt.Sprintf("n=%d/unknown-table", n), func(t *testing.T) { checkExact(t, batch) })
	}
}

// checkExact commits batch through commitBatch on one tool and delta by
// delta on a twin, and compares verdicts, final state and pass count.
func checkExact(t *testing.T, batch []sched.Delta) {
	t.Helper()
	group, serial := newAttrTool(t), newAttrTool(t)
	acks, err := group.commitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for i, d := range batch {
		alone, err := serial.commitBatch([]sched.Delta{d})
		if err != nil {
			t.Fatal(err)
		}
		want := verdict(alone[0])
		if got := verdict(acks[i]); got != want {
			t.Errorf("delta %d: batch verdict %q, alone %q", i, got, want)
		}
		if alone[0].Err != nil || !alone[0].Res.Committed {
			k++
		}
	}
	if got, want := acctRows(group), acctRows(serial); got != want {
		t.Errorf("state mismatch:\nbatch: %s\nalone: %s", got, want)
	}
	n := len(batch)
	bound := min(2*n-1, 1+2*k*bits.Len(uint(n-1)))
	if got := checkPasses(group); got > bound {
		t.Errorf("%d passes for %d deltas with %d rejected, bound %d", got, n, k, bound)
	}
}

// verdict renders an ack as what its session observes: the error, or the
// commit flag with every violating tuple.
func verdict(ack sched.Ack[*CommitResult]) string {
	if ack.Err != nil {
		return "error: " + ack.Err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "committed=%v", ack.Res.Committed)
	for _, v := range ack.Res.Violations {
		fmt.Fprintf(&b, "; %s/%s", v.Assertion, v.EDC)
		for _, row := range v.Rows {
			b.WriteString(" " + row.String())
		}
	}
	return b.String()
}

func acctRows(t *Tool) string {
	var rows []string
	t.DB().MustTable("acct").Scan(func(row sqltypes.Row) bool {
		rows = append(rows, row.String())
		return true
	})
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

// TestCommitBatchTPCHNegativeQuantity: on the paper's schema with its seven
// assertions, eight sessions each insert one order with line number 1, and
// one of those line items has a negative quantity. Bisection finds it in
// 1 + 2⌈log2 8⌉ = 7 passes.
func TestCommitBatchTPCHNegativeQuantity(t *testing.T) {
	db, _, err := tpch.NewDatabase("tpc", tpch.ScaleOrders("tiny", 300), 29)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	tool := New(db, opts)
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range tpch.ComplexityAssertions() {
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Fatal(err)
		}
	}
	const guilty = 5
	batch := make([]sched.Delta, 8)
	for i := range batch {
		o, qty := 1000000+i, 5
		if i == guilty {
			qty = -3
		}
		batch[i] = sched.Delta{Ops: []sched.Op{
			{Table: "orders", Row: sqltypes.Row{iv(o), iv(i), fv(50)}},
			{Table: "lineitem", Row: sqltypes.Row{iv(o), iv(1), iv(0), iv(0), iv(qty)}},
		}}
	}
	acks, err := tool.commitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		if ack.Err != nil {
			t.Fatalf("delta %d: %v", i, ack.Err)
		}
		if ack.Res.Committed != (i != guilty) {
			t.Errorf("delta %d: committed=%v, violations %v", i, ack.Res.Committed, ack.Res.Violations)
		}
	}
	if got := checkPasses(tool); got > 7 {
		t.Fatalf("%d passes, want at most 7", got)
	}
}

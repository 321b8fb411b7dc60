// Race test for the whole parallel commit-check stack: concurrent sessions
// drive safeCommit checks through the group committer over the banking
// example schema, with the parallel scheduler fanning each check across
// workers. Run under -race (make test-race) this exercises every layer the
// refactor made concurrency-safe: per-worker plan clones, per-exec key
// scratch, read-only index probing over the frozen snapshot.
package sched_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tintin/internal/core"
	"tintin/internal/core/coretest"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
)

func iv(n int64) sqltypes.Value   { return sqltypes.NewInt(n) }
func fv(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }

// TestConcurrentSafeCommit drives concurrent sessions through the group
// committer: every clean transfer must commit (even when it shared a
// rejected batch with a violating one), every violating transfer must be
// rejected with its own verdict, and the final table state must account
// for exactly the committed set.
func TestConcurrentSafeCommit(t *testing.T) {
	tool := coretest.NewBankTool(t, 4)
	committer := tool.NewCommitter()
	seeded := tool.DB().MustTable("transfer").Len()

	const sessions = 8
	const perSession = 15
	var committed, rejected atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			for i := int64(0); i < perSession; i++ {
				id := 10000 + s*1000 + i
				amount := 1.0 + float64(i)
				to := int64(200)
				if i%5 == 4 {
					amount = 0 // violates positiveAmount
				}
				if i%7 == 6 {
					to = 300 // violates transferEndpointsOpen (closed account)
				}
				d := sched.Delta{Ops: []sched.Op{{
					Table: "transfer",
					Row:   sqltypes.Row{iv(id), iv(100), iv(to), fv(amount)},
				}}}
				res, err := committer.Commit(d)
				if err != nil {
					t.Errorf("session %d commit %d: %v", s, i, err)
					return
				}
				dirty := amount <= 0 || to == 300
				if res.Committed == dirty {
					t.Errorf("session %d commit %d: dirty=%v but committed=%v (violations %v)",
						s, i, dirty, res.Committed, res.Violations)
				}
				if dirty && len(res.Violations) == 0 {
					t.Errorf("session %d commit %d: rejected without a verdict", s, i)
				}
				if res.Committed {
					committed.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(int64(s))
	}
	wg.Wait()

	if got := committed.Load() + rejected.Load(); got != sessions*perSession {
		t.Fatalf("acked %d sessions' commits, want %d", got, sessions*perSession)
	}
	wantRows := seeded + int(committed.Load())
	if got := tool.DB().MustTable("transfer").Len(); got != wantRows {
		t.Fatalf("transfer table has %d rows, want %d (seeded %d + committed)", got, wantRows, seeded)
	}
	// The committed state must be assertion-clean: a full re-check of a
	// trivial clean update flags nothing.
	if err := tool.DB().Insert("transfer", sqltypes.Row{iv(99999), iv(100), iv(200), fv(1.0)}); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("final state dirty: %v", res.Violations)
	}
}

// TestConcurrentFailFastSafeCommit is the TestConcurrentSafeCommit workload
// on a 4-worker pool with FailFast: under -race it exercises row-limited
// checks running concurrently on worker clones. Multi-op deltas put several
// violating rows in one batch, so every rejection must carry exactly one
// witness row per violated view.
func TestConcurrentFailFastSafeCommit(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 4
	opts.FailFast = true
	tool := coretest.NewBankToolOpts(t, opts)
	committer := tool.NewCommitter()
	seeded := tool.DB().MustTable("transfer").Len()

	const sessions = 6
	const perSession = 10
	var committed atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			for i := int64(0); i < perSession; i++ {
				base := 40000 + s*1000 + i*10
				amount := 2.0
				dirty := i%3 == 2
				if dirty {
					amount = -1.0 // violates positiveAmount, twice per delta
				}
				d := sched.Delta{Ops: []sched.Op{
					{Table: "transfer", Row: sqltypes.Row{iv(base), iv(100), iv(200), fv(amount)}},
					{Table: "transfer", Row: sqltypes.Row{iv(base + 1), iv(200), iv(100), fv(3.0)}},
					{Table: "transfer", Row: sqltypes.Row{iv(base + 2), iv(100), iv(200), fv(amount)}},
				}}
				res, err := committer.Commit(d)
				if err != nil {
					t.Errorf("session %d commit %d: %v", s, i, err)
					return
				}
				if res.Committed == dirty {
					t.Errorf("session %d commit %d: dirty=%v but committed=%v", s, i, dirty, res.Committed)
				}
				for _, v := range res.Violations {
					if len(v.Rows) != 1 {
						t.Errorf("session %d commit %d: view %s returned %d rows under FailFast", s, i, v.View, len(v.Rows))
					}
				}
				if res.Committed {
					committed.Add(3)
				}
			}
		}(int64(s))
	}
	wg.Wait()
	if got := tool.DB().MustTable("transfer").Len(); got != seeded+int(committed.Load()) {
		t.Fatalf("transfer table has %d rows, want %d", got, seeded+int(committed.Load()))
	}
}

// TestConcurrentSafeCommitSerialBackend is the same workload with a
// single-worker tool behind the committer: group commit must be correct
// independent of the check fan-out.
func TestConcurrentSafeCommitSerialBackend(t *testing.T) {
	tool := coretest.NewBankTool(t, 1)
	committer := tool.NewCommitter()
	seeded := tool.DB().MustTable("transfer").Len()
	var wg sync.WaitGroup
	var committed atomic.Int64
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			for i := int64(0); i < 10; i++ {
				id := 20000 + s*1000 + i
				res, err := committer.Commit(sched.Delta{Ops: []sched.Op{{
					Table: "transfer",
					Row:   sqltypes.Row{iv(id), iv(100), iv(200), fv(2.0)},
				}}})
				if err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
				if !res.Committed {
					t.Errorf("session %d commit %d: clean transfer rejected: %v", s, i, res.Violations)
				} else {
					committed.Add(1)
				}
			}
		}(int64(s))
	}
	wg.Wait()
	if got := tool.DB().MustTable("transfer").Len(); got != seeded+int(committed.Load()) {
		t.Fatalf("transfer table has %d rows, want %d", got, seeded+int(committed.Load()))
	}
}

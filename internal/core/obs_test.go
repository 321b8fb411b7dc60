package core

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"tintin/internal/obs"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// newObsTool builds a tool with the full observability surface wired:
// metrics registry, tracing, and a 2-worker pool.
func newObsTool(t *testing.T) *Tool {
	t.Helper()
	db := storage.NewDB("obs")
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Metrics = obs.NewRegistry()
	opts.Trace = true
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

// TestMetricsUnderConcurrentCommits is the satellite race test: concurrent
// sessions drive group commits through the committer while a reader polls
// Tool.Stats() (registry snapshot + plan-cache gauges) and drains the trace
// ring. Run under -race; the assertions then pin the counters' consistency.
func TestMetricsUnderConcurrentCommits(t *testing.T) {
	tool := newObsTool(t)
	com := tool.NewCommitter()

	const sessions = 8
	const commitsPer = 10
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tool.Stats()
			if s.Runtime == nil {
				t.Error("Stats() without runtime snapshot")
				return
			}
			if _, err := json.Marshal(s); err != nil {
				t.Errorf("Stats() not JSON-encodable: %v", err)
				return
			}
			_ = tool.LastTrace()
			_ = tool.Tracer().Drain()
		}
	}()

	var wg sync.WaitGroup
	var rejected sync.Map
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < commitsPer; i++ {
				id := int64(100 + s*commitsPer + i)
				bal := 1.0
				if i == 3 { // one violating delta per session
					bal = -1.0
				}
				res, err := com.Commit(sched.Delta{Ops: []sched.Op{{
					Table: "acct",
					Row:   sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewFloat(bal)},
				}}})
				if err != nil {
					t.Errorf("session %d commit %d: %v", s, i, err)
					return
				}
				if !res.Committed {
					rejected.Store(id, true)
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	var nRejected int
	rejected.Range(func(any, any) bool { nRejected++; return true })
	if nRejected != sessions {
		t.Fatalf("rejected %d deltas, want %d (one per session)", nRejected, sessions)
	}

	snap := tool.Metrics().Snapshot()
	commits := snap.Counters["tintin_commits_total"]
	rejects := snap.Counters["tintin_rejects_total"]
	// Every session delta resolves through at least one safeCommit; batch
	// passes add more. Rejected safeCommits must cover the violating deltas
	// (each is re-checked individually) — batch-level rejections can add to
	// that, never subtract.
	if rejects < int64(sessions) {
		t.Fatalf("rejects = %d, want >= %d", rejects, sessions)
	}
	if commits == 0 {
		t.Fatal("no committed safeCommits counted")
	}
	if got := snap.Counters["tintin_violation_rows_total"]; got < int64(sessions) {
		t.Fatalf("violation rows = %d, want >= %d", got, sessions)
	}
	batches := snap.Counters["tintin_commit_batches_total"]
	deltas := snap.Counters["tintin_commit_batch_deltas_total"]
	if batches == 0 || deltas != int64(sessions*commitsPer) {
		t.Fatalf("batches=%d deltas=%d, want deltas=%d", batches, deltas, sessions*commitsPer)
	}
	if hs := snap.Histograms["tintin_commit_batch_size"]; hs.Count != batches {
		t.Fatalf("batch-size samples = %d, batches = %d", hs.Count, batches)
	}
	if snap.Gauges["tintin_commit_queue_depth"] != 0 {
		t.Fatalf("queue depth nonzero after drain: %d", snap.Gauges["tintin_commit_queue_depth"])
	}
	if snap.Histograms["tintin_safecommit_ns"].Count != commits+rejects {
		t.Fatalf("safecommit samples = %d, commits+rejects = %d",
			snap.Histograms["tintin_safecommit_ns"].Count, commits+rejects)
	}
	if snap.Gauges["tintin_plan_cache_misses"] == 0 {
		t.Fatal("plan-cache gauges not exported")
	}
}

// TestSafeCommitTraceTree pins the span-tree shape of a traced, committed
// SafeCommit at the default width: normalize → check (freeze, a per-view
// task span, merge) → apply, all under one safecommit root.
func TestSafeCommitTraceTree(t *testing.T) {
	db := storage.NewDB("trace")
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	opts.Trace = true
	tool := New(db, opts)
	if _, err := tool.Engine().ExecSQL(`
		CREATE TABLE acct (a_id INTEGER PRIMARY KEY, a_balance REAL NOT NULL);
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
	if _, err := tool.Engine().ExecSQL(`INSERT INTO acct VALUES (1, 5.0)`); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("clean update rejected")
	}
	tr := tool.LastTrace()
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.Root.Name != "safecommit" {
		t.Fatalf("root span = %q", tr.Root.Name)
	}
	var names []string
	for _, c := range tr.Root.Children {
		names = append(names, c.Name)
	}
	want := []string{"normalize", "check", "apply"}
	if len(names) != len(want) {
		t.Fatalf("top-level spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("top-level spans = %v, want %v", names, want)
		}
	}
	check := tr.Root.Children[1]
	if len(check.Children) != 3 || check.Children[0].Name != "freeze" ||
		check.Children[1].Name != "task" || check.Children[2].Name != "merge" {
		t.Fatalf("check spans = %+v, want freeze, one task span, merge", check.Children)
	}
	task := check.Children[1]
	var view, lane string
	for _, a := range task.Attrs {
		switch a.Key {
		case "view":
			view = a.Value()
		case "lane":
			lane = a.Value()
		}
	}
	if view == "" || lane != "whole" {
		t.Fatalf("task attrs = %+v, want view attr and lane=whole", task.Attrs)
	}

	// The rejected path swaps apply for truncate.
	if _, err := tool.Engine().ExecSQL(`INSERT INTO acct VALUES (2, -5.0)`); err != nil {
		t.Fatal(err)
	}
	res, err = tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("violating update committed")
	}
	tr = tool.LastTrace()
	last := tr.Root.Children[len(tr.Root.Children)-1]
	if last.Name != "truncate" {
		t.Fatalf("rejected commit's last span = %q, want truncate", last.Name)
	}
}

// TestObserveViewExportsEstimates checks that per-view histograms and the
// cost model's EWMA gauges land in the registry under labeled names.
func TestObserveViewExportsEstimates(t *testing.T) {
	tool := newObsTool(t)
	tool.registerViewMetrics("v_x_1") // normally done when the view is installed
	tool.observeView("v_x_1", 100*time.Microsecond)
	tool.observeView("v_x_1", 200*time.Microsecond)
	snap := tool.Metrics().Snapshot()
	hs, ok := snap.Histograms[obs.Label("tintin_view_check_ns", "view", "v_x_1")]
	if !ok || hs.Count != 2 {
		t.Fatalf("per-view histogram: %+v ok=%v", hs, ok)
	}
	est, ok := snap.Gauges[obs.Label("tintin_cost_est_ns", "view", "v_x_1")]
	if !ok || est != int64(tool.cost.estimate("v_x_1")) {
		t.Fatalf("cost gauge = %d ok=%v, model says %d", est, ok, tool.cost.estimate("v_x_1"))
	}
}

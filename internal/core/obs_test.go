package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

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
	// (each ends up rejected in a unit of its own) — rejections of larger
	// units can add to that, never subtract.
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
// SafeCommit at the default width: normalize → check (freeze, then one task
// span per checked view) → apply, all under one safecommit root.
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
	if len(check.Children) != 1+res.ViewsChecked || check.Children[0].Name != "freeze" {
		t.Fatalf("check spans = %+v, want freeze and %d task spans", check.Children, res.ViewsChecked)
	}
	for i, task := range check.Children[1:] {
		var keys []string
		for _, a := range task.Attrs {
			keys = append(keys, a.Key)
		}
		if task.Name != "task" || !reflect.DeepEqual(keys, []string{"view", "worker", "rows"}) ||
			task.Attrs[0].Value() != res.ViewDurations[i].View {
			t.Fatalf("check span %d = %+v, want a task span for view %s with worker and rows",
				i+1, task, res.ViewDurations[i].View)
		}
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

// TestViewCheckHistograms: every checked view's duration lands in its
// labeled tintin_view_check_ns histogram, and nothing else is exported per
// view.
func TestViewCheckHistograms(t *testing.T) {
	tool := newObsTool(t)
	var checked int
	for id := int64(3); id < 5; id++ {
		if err := tool.DB().Insert("acct", sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewFloat(1)}); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		checked += res.ViewsChecked
	}
	snap := tool.Metrics().Snapshot()
	var observed int64
	for _, v := range tool.Assertion("positiveBalance").Views {
		hs, ok := snap.Histograms[obs.Label("tintin_view_check_ns", "view", v)]
		if !ok {
			t.Fatalf("no histogram for view %s", v)
		}
		observed += hs.Count
	}
	if checked == 0 || observed != int64(checked) {
		t.Fatalf("per-view histograms hold %d samples for %d checked views", observed, checked)
	}
	for name := range snap.Gauges {
		if strings.Contains(name, ";view=") {
			t.Fatalf("per-view gauge %s exported", name)
		}
	}
}

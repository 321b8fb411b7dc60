// Package core implements the TINTIN tool itself: given a database and a set
// of SQL assertions, it installs event-capture tables (the paper's ins_T /
// del_T with INSTEAD OF triggers), compiles each assertion through the
// assertion → denial → EDC → SQL pipeline, stores the incremental queries as
// views, and provides the safeCommit procedure that checks pending updates
// and either commits them or reports the violating tuples.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tintin/internal/edc"
	"tintin/internal/engine"
	"tintin/internal/logic"
	"tintin/internal/obs"
	"tintin/internal/sched"
	"tintin/internal/sqlgen"
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/wal"
)

// Options configures the tool; the zero value disables every optimization.
type Options struct {
	// EDC carries the semantic-optimization toggles.
	EDC edc.Options
	// SkipEmptyEventViews skips evaluating views whose trigger event tables
	// are all empty (the paper's "trivially discarded" queries).
	SkipEmptyEventViews bool
	// DisableIndexProbes forces full scans in the evaluator (E4 ablation).
	DisableIndexProbes bool
	// Workers sets the commit-check fan-out. Every check runs through the
	// same worker pool — private plan clones over the frozen database,
	// violations merged deterministically in assertion order — and Workers
	// is only its width: with Workers > 1 independent incremental views are
	// checked concurrently, with 0 or 1 the pool's single worker runs them
	// one after another on the calling goroutine. Any worker count produces
	// identical CommitResults (TestParallelCheckParity).
	Workers int
	// SplitThreshold guides intra-view parallelism when Workers > 1: a view
	// whose estimated check duration (an EWMA of observed durations, see
	// CommitResult.ViewDurations) exceeds the threshold has its driving
	// event scan split into row-range partitions, each checked as its own
	// scheduler task, so one hot view saturates every worker instead of
	// pinning one. Zero (the default) is auto mode — the threshold is the
	// fair per-worker share of the check's total estimated work; negative
	// disables splitting; positive is a fixed cut size. Results are merged
	// in partition order and are bit-identical to an unsplit check
	// (TestPartitionedCheckParity).
	SplitThreshold time.Duration
	// FailFast stops every view check at the first violating row: a
	// rejected commit reports one witness tuple per violated view instead
	// of the full violation set. For callers that only need accept/reject
	// it caps the cost of pathological updates at the detection cost. The
	// witness is deterministic — the first row the serial check would find.
	FailFast bool
	// Metrics, when set, is the registry the tool publishes commit-path
	// telemetry into: commit/reject counters, safeCommit and per-view
	// latency histograms, scheduler and group-commit counters, and live
	// plan-cache gauges. Nil disables all of it; instrumentation then costs
	// one predictable branch per site (see internal/obs).
	Metrics *obs.Registry
	// Trace enables per-commit span recording: every SafeCommit produces a
	// span tree (normalize → check → freeze/fan-out/merge → apply) kept in
	// a bounded ring readable via LastTrace / Tracer. Off by default; span
	// storage is pooled, so steady-state tracing does not allocate.
	Trace bool
	// TraceRing caps the trace ring (0 = obs.DefaultTraceRing).
	TraceRing int
	// SlowTrace promotes any commit trace slower than this threshold to a
	// structured JSON log line on SlowTraceWriter (0 = never promote).
	SlowTrace time.Duration
	// SlowTraceWriter receives promoted slow traces (default os.Stderr).
	SlowTraceWriter io.Writer
	// ProfileLabels applies pprof labels (view, partition) to scheduler
	// subtask execution so CPU profiles attribute worker samples. Off by
	// default: label application allocates.
	ProfileLabels bool
	// WALDir roots the durability subsystem: a write-ahead log of applied
	// event batches plus snapshot checkpoints under this directory. Empty
	// (the default) keeps the tool purely in-memory. Attach with
	// OpenDurable (recover-or-initialize) or EnableDurability (fresh).
	WALDir string
	// Fsync is the WAL fsync policy (wal.SyncAlways, the zero value, by
	// default); FsyncInterval bounds the loss window under
	// wal.SyncInterval (0 = 100ms).
	Fsync         wal.SyncPolicy
	FsyncInterval time.Duration
	// CheckpointEvery snapshots and truncates the log after this many
	// applied batches. 0 = every 256 batches; negative = only on Close or
	// an explicit Checkpoint call.
	CheckpointEvery int
	// FaultInjector, when set, simulates crashes at named WAL points
	// (tests only; see wal.Injector).
	FaultInjector *wal.Injector
	// Logger receives structured lifecycle events — durable recovery,
	// checkpoints, torn-tail truncations, group-committer lifecycle — via
	// the nil-safe obs.Logger. Nil disables logging; the commit hot path
	// never logs either way (the obsdirect analyzer rejects log/slog calls
	// reachable from safeCommit, excepting reasoned waivers).
	Logger *obs.Logger
}

// DefaultOptions enables everything, matching the paper's tool.
func DefaultOptions() Options {
	return Options{EDC: edc.DefaultOptions(), SkipEmptyEventViews: true}
}

// Assertion is one compiled SQL assertion.
type Assertion struct {
	Name   string
	SQL    string
	Check  sqlparser.Expr
	Denial *logic.Translation
	EDCs   *edc.Set
	// Views lists the stored view names, one per EDC, in EDC order.
	Views []string
	// Triggers is the union of the EDCs' event tables — the assertion's
	// whole event footprint. safeCommit skips the assertion without looking
	// at a single view when every one of them is empty.
	Triggers []string
}

// Violation reports the rows returned by one incremental view.
type Violation struct {
	Assertion string
	EDC       string
	View      string
	Columns   []string
	Rows      []sqltypes.Row
}

// String renders a one-line summary.
func (v Violation) String() string {
	return fmt.Sprintf("assertion %s violated (%s): %d tuple(s)", v.Assertion, v.EDC, len(v.Rows))
}

// CommitResult is the outcome of one safeCommit call.
type CommitResult struct {
	Committed  bool
	Violations []Violation
	// ViewsChecked / ViewsSkipped report the trivial-emptiness discard.
	ViewsChecked int
	ViewsSkipped int
	// AssertionsSkipped counts assertions discarded by the pre-pass alone:
	// their whole event footprint was empty, so none of their views were
	// even considered.
	AssertionsSkipped int
	// CancelledEvents counts ins/del pairs removed by normalization.
	CancelledEvents int
	// Duration is the wall time of evaluating the incremental views — the
	// quantity the paper reports as TINTIN's checking time.
	Duration time.Duration
	// NormalizeDuration is the event-normalization overhead, reported
	// separately (it is per-transaction, not per-assertion).
	NormalizeDuration time.Duration
	// ViewDurations reports the observed evaluation time of every view this
	// check evaluated, in check order (for a split check, the summed
	// partition times — the view's work, not its wall time). It feeds the
	// splitter's cost model and tintinbench's -perview skew table.
	ViewDurations []ViewDuration
}

// ViewDuration is one view's observed check time within a CommitResult.
type ViewDuration struct {
	View     string
	Duration time.Duration
}

// Tool is a TINTIN instance bound to one database.
type Tool struct {
	db      *storage.DB
	eng     *engine.Engine
	opts    Options
	order   []string
	asserts map[string]*Assertion

	// pool is the commit-check scheduler; tasks is the task-list scratch
	// handed to it, reused across commits.
	pool  *sched.Pool
	tasks []sched.Task
	// cost estimates per-view check durations (EWMA) for the task splitter.
	cost costModel

	// met holds the resolved metric pointers (all nil when Options.Metrics
	// is unset); tracer records per-commit span trees (nil when tracing is
	// off).
	met    toolMetrics
	tracer *obs.Tracer

	// wal is the attached durability state (nil = in-memory only).
	wal *walState
}

// New creates a tool over db with the given options.
func New(db *storage.DB, opts Options) *Tool {
	t := &Tool{
		db:      db,
		eng:     engine.New(db),
		opts:    opts,
		asserts: make(map[string]*Assertion),
		pool:    sched.NewPool(opts.Workers),
	}
	t.pool.SetProfileLabels(opts.ProfileLabels)
	if opts.Metrics != nil {
		t.initMetrics(opts.Metrics)
	}
	if opts.Trace {
		t.tracer = obs.NewTracer(opts.TraceRing)
		t.tracer.SetEnabled(true)
		t.tracer.SetSlowThreshold(opts.SlowTrace)
		if opts.SlowTraceWriter != nil {
			t.tracer.SetSlowWriter(opts.SlowTraceWriter)
		}
	}
	t.eng.DisableIndexProbes = opts.DisableIndexProbes
	t.eng.RegisterProcedure("safecommit", func() (*engine.ExecResult, error) {
		res, err := t.SafeCommit()
		if err != nil {
			return nil, err
		}
		msg := "committed"
		if !res.Committed {
			msg = fmt.Sprintf("rejected: %d assertion violation(s)", len(res.Violations))
		}
		return &engine.ExecResult{Message: msg}, nil
	})
	return t
}

// DB returns the underlying database.
func (t *Tool) DB() *storage.DB { return t.db }

// Engine returns the engine bound to the database (shares procedure
// registrations, including safeCommit).
func (t *Tool) Engine() *engine.Engine { return t.eng }

// Install creates the event tables for every base table and enables
// capture: from here on INSERT/DELETE land in ins_T / del_T and base tables
// stay untouched until SafeCommit. Assertions added before Install have
// their incremental views compiled now (they reference event tables that
// only just came into existence).
func (t *Tool) Install() error {
	if err := t.db.InstallEventTables(); err != nil {
		return err
	}
	if err := t.db.SetCapture(true); err != nil {
		return err
	}
	for _, name := range t.order {
		for _, vname := range t.asserts[name].Views {
			if err := t.compileView(vname); err != nil {
				return fmt.Errorf("tintin: compiling %s: %w", vname, err)
			}
		}
	}
	return nil
}

// schemaInfo adapts storage.DB to the logic/edc catalog interfaces.
type schemaInfo struct{ db *storage.DB }

func (c schemaInfo) TableColumns(name string) ([]string, bool) {
	// Resolve event tables to their base schema for arity purposes.
	base := name
	if b, _, isEvt := storage.IsEventTable(name); isEvt {
		base = b
	}
	tb := c.db.Table(base)
	if tb == nil {
		return nil, false
	}
	return tb.Schema().ColumnNames(), true
}

func (c schemaInfo) PrimaryKey(name string) []string {
	tb := c.db.Table(name)
	if tb == nil {
		return nil
	}
	return tb.Schema().PrimaryKey
}

func (c schemaInfo) ForeignKeys(name string) []edc.FK {
	tb := c.db.Table(name)
	if tb == nil {
		return nil
	}
	var out []edc.FK
	for _, fk := range tb.Schema().ForeignKeys {
		out = append(out, edc.FK{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns})
	}
	return out
}

// AddAssertion parses and compiles a CREATE ASSERTION statement, storing its
// incremental queries as views.
func (t *Tool) AddAssertion(sql string) (*Assertion, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	ca, ok := st.(*sqlparser.CreateAssertion)
	if !ok {
		return nil, fmt.Errorf("tintin: expected CREATE ASSERTION, got %T", st)
	}
	return t.AddAssertionAST(ca, sql)
}

// AddAssertionAST compiles an already-parsed assertion.
func (t *Tool) AddAssertionAST(ca *sqlparser.CreateAssertion, sql string) (*Assertion, error) {
	name := strings.ToLower(ca.Name)
	if _, dup := t.asserts[name]; dup {
		return nil, fmt.Errorf("tintin: assertion %s already exists", ca.Name)
	}
	if err := typeCheck(t.db, ca.Check); err != nil {
		return nil, fmt.Errorf("tintin: assertion %s: %w", ca.Name, err)
	}
	info := schemaInfo{t.db}
	tr, err := logic.Translate(name, ca.Check, info)
	if err != nil {
		return nil, err
	}
	set, err := edc.Generate(tr, info, t.opts.EDC)
	if err != nil {
		return nil, err
	}
	gen := sqlgen.New(info, set.Rules)
	a := &Assertion{Name: name, SQL: sql, Check: ca.Check, Denial: tr, EDCs: set, Triggers: set.Triggers()}
	for i, e := range set.EDCs {
		sel, err := gen.Select(e)
		if err != nil {
			return nil, err
		}
		vname := sqlgen.ViewName(name, i)
		if err := t.db.CreateView(vname, sel); err != nil {
			return nil, err
		}
		a.Views = append(a.Views, vname)
		t.registerViewMetrics(vname)
		if err := t.compileView(vname); err != nil {
			return nil, fmt.Errorf("tintin: compiling %s: %w", vname, err)
		}
	}
	t.asserts[name] = a
	t.order = append(t.order, name)
	return a, nil
}

// compileView pays the whole parse/resolve/plan/index cost of one
// incremental view at installation time: the plan is compiled into the
// engine's cache, and every index its probes — on base and event tables —
// call for is built now, so commit-time checking only touches the delta.
// Before Install the view references event tables that don't exist yet;
// compilation is deferred to Install in that case.
func (t *Tool) compileView(vname string) error {
	sel := t.db.View(vname)
	for _, tb := range sqlparser.TablesReferenced(sel) {
		if t.db.Table(tb) == nil && t.db.View(tb) == nil {
			return nil // event tables not installed yet; Install compiles us
		}
	}
	p, err := t.eng.PrepareView(vname)
	if err != nil {
		return err
	}
	if t.opts.DisableIndexProbes {
		return nil // the E4 ablation scans on purpose; building indexes would lie
	}
	return p.EnsureIndexes()
}

// Assertions returns the compiled assertions in creation order.
func (t *Tool) Assertions() []*Assertion {
	out := make([]*Assertion, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, t.asserts[n])
	}
	return out
}

// Assertion returns one compiled assertion, or nil.
func (t *Tool) Assertion(name string) *Assertion { return t.asserts[strings.ToLower(name)] }

// DropAssertion removes an assertion and its views.
func (t *Tool) DropAssertion(name string) error {
	name = strings.ToLower(name)
	a := t.asserts[name]
	if a == nil {
		return fmt.Errorf("tintin: no assertion %s", name)
	}
	for _, v := range a.Views {
		if err := t.db.DropView(v); err != nil {
			return err
		}
		t.eng.ForgetPlan(v)
		delete(t.met.perView, v)
	}
	delete(t.asserts, name)
	for i, n := range t.order {
		if n == name {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	return nil
}

// Check evaluates the incremental views against the pending events without
// committing or truncating anything. It implements the paper's efficiency
// mechanism: a view is skipped outright when every event table that could
// trigger it is empty.
func (t *Tool) Check() (*CommitResult, error) { return t.check(nil) }

// check is Check with an optional parent span (the SafeCommit trace root);
// a nil parent makes every span call a no-op branch.
func (t *Tool) check(parent *obs.Span) (*CommitResult, error) {
	res := &CommitResult{}
	ns := parent.Child("normalize")
	normStart := time.Now()
	res.CancelledEvents = t.db.NormalizeEvents()
	res.NormalizeDuration = time.Since(normStart)
	ns.SetAttrInt("cancelled", int64(res.CancelledEvents))
	ns.End()

	start := time.Now()
	nonEmpty := map[string]bool{}
	withIns, withDel := t.db.PendingEvents()
	for _, n := range withIns {
		nonEmpty[storage.InsTable(n)] = true
	}
	for _, n := range withDel {
		nonEmpty[storage.DelTable(n)] = true
	}

	// The pre-pass produces the check list — one entry per view that could
	// be affected — and the skip accounting; evaluation then runs through
	// the scheduler, with identical results at any width.
	var checks []viewCheck
	for _, name := range t.order {
		a := t.asserts[name]
		// Trivial-emptiness pre-pass: when every event table in the
		// assertion's footprint is empty (by Len(), no query evaluated),
		// skip the whole assertion before touching any view.
		if t.opts.SkipEmptyEventViews && !anyTrigger(a.Triggers, nonEmpty) {
			res.ViewsSkipped += len(a.Views)
			res.AssertionsSkipped++
			continue
		}
		for i, e := range a.EDCs.EDCs {
			if t.opts.SkipEmptyEventViews && !anyTrigger(e.Triggers, nonEmpty) {
				res.ViewsSkipped++
				continue
			}
			res.ViewsChecked++
			checks = append(checks, viewCheck{assertion: a, edcName: e.Name, view: a.Views[i]})
		}
	}

	res.ViewDurations = make([]ViewDuration, 0, len(checks))
	cs := parent.Child("check")
	cs.SetAttrInt("views_checked", int64(res.ViewsChecked))
	cs.SetAttrInt("views_skipped", int64(res.ViewsSkipped))
	err := t.runChecks(checks, res, cs)
	cs.End()
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)

	m := &t.met
	m.viewsChecked.Add(int64(res.ViewsChecked))
	m.viewsSkipped.Add(int64(res.ViewsSkipped))
	m.assertionsSkipped.Add(int64(res.AssertionsSkipped))
	m.eventsCancelled.Add(int64(res.CancelledEvents))
	m.checkNS.ObserveDuration(res.Duration)
	m.normalizeNS.ObserveDuration(res.NormalizeDuration)
	return res, nil
}

// viewCheck is one evaluation unit of a Check: an incremental view of one
// assertion's EDC whose event footprint is non-empty.
type viewCheck struct {
	assertion *Assertion
	edcName   string
	view      string
}

// rowLimit is the per-view row cap the options imply (0 = no cap).
func (t *Tool) rowLimit() int {
	if t.opts.FailFast {
		return 1
	}
	return 0
}

// runChecks evaluates the check list through the scheduler's worker pool.
// Plans are resolved (and any missing probe index built) before the pool
// runs; the database is frozen for the run's duration so every worker probes
// an immutable snapshot; and outcomes are merged back in check-list order, so
// violation ordering does not depend on the pool's width. Every view's
// duration is measured and fed to the cost model.
//
// The cost model decides which views to split: a view whose estimated
// duration exceeds the split threshold (see Options.SplitThreshold) and
// whose plan is driven by an event-table scan becomes several partition
// subtasks instead of one task, so the slowest view no longer bounds the
// fan-out's makespan. The pool merges partition outputs in range order, so
// splitting never changes a CommitResult.
func (t *Tool) runChecks(checks []viewCheck, res *CommitResult, parent *obs.Span) error {
	limit := t.rowLimit()
	parts := t.cost.splitParts(checks, t.pool.Workers(), t.opts.SplitThreshold)
	tasks := t.tasks[:0]
	for i, c := range checks {
		//tintin:allow hotpathcompile cache hit for installed views; TestSafeCommitUsesPlanCache pins zero commit-time compiles
		p, err := t.eng.PrepareView(c.view)
		if err != nil {
			return fmt.Errorf("tintin: evaluating %s: %w", c.view, err)
		}
		if err := p.EnsureIndexes(); err != nil {
			return fmt.Errorf("tintin: evaluating %s: %w", c.view, err)
		}
		task := sched.Task{Plan: p, Limit: limit}
		if parts[i] > 1 && splittable(p) {
			task.Parts = parts[i]
		}
		tasks = append(tasks, task)
	}
	t.tasks = tasks

	fs := parent.Child("freeze")
	t.db.Freeze()
	fs.End()
	defer t.db.Thaw() // deferred: a panic escaping the pool must not leave the db frozen
	outs := t.pool.RunSpan(tasks, parent)

	for i, out := range outs {
		c := checks[i]
		if out.Err != nil {
			return fmt.Errorf("tintin: evaluating %s: %w", c.view, out.Err)
		}
		res.ViewDurations = append(res.ViewDurations, ViewDuration{View: c.view, Duration: out.Duration})
		t.observeView(c.view, out.Duration)
		if len(out.Rows) > 0 {
			res.Violations = append(res.Violations, Violation{
				Assertion: c.assertion.Name,
				EDC:       c.edcName,
				View:      c.view,
				Columns:   out.Columns,
				Rows:      out.Rows,
			})
		}
	}
	return nil
}

func anyTrigger(triggers []string, nonEmpty map[string]bool) bool {
	for _, tr := range triggers {
		if nonEmpty[tr] {
			return true
		}
	}
	return false
}

// SafeCommit is the paper's safeCommit procedure: it checks the pending
// update and, when no assertion is violated, applies the events to the base
// tables; either way the event tables are truncated afterwards so a new
// update can be proposed.
func (t *Tool) SafeCommit() (*CommitResult, error) { return t.safeCommitUnder(nil) }

// safeCommitUnder is SafeCommit with its span tree rooted under parent: the
// group committer's leader passes the open batch span and this commit nests
// inside that trace; a nil parent (a direct call) starts — or, with tracing
// off, skips — a trace of its own.
func (t *Tool) safeCommitUnder(parent *obs.Span) (*CommitResult, error) {
	var trace *obs.Trace
	root := parent.Child("safecommit")
	if root == nil {
		trace = t.tracer.Start("safecommit")
		root = trace.Root()
	}
	start := time.Now()
	res, err := t.safeCommit(root)
	if err == nil {
		t.met.safeCommitNS.ObserveDuration(time.Since(start))
		if res.Committed {
			root.SetAttrInt("committed", 1)
			t.met.commits.Inc()
		} else {
			root.SetAttrInt("committed", 0)
			root.SetAttrInt("violations", int64(len(res.Violations)))
			t.met.rejects.Inc()
			for _, v := range res.Violations {
				t.met.violationRows.Add(int64(len(v.Rows)))
			}
		}
	}
	if trace != nil {
		trace.Finish()
	} else {
		root.End()
	}
	return res, err
}

func (t *Tool) safeCommit(root *obs.Span) (*CommitResult, error) {
	res, err := t.check(root)
	if err != nil {
		return nil, err
	}
	if len(res.Violations) == 0 {
		// Durability point: the validated batch is appended to the WAL
		// (and fsynced, per policy) before the in-memory apply, so an
		// acknowledged commit survives a crash and an unacknowledged one
		// leaves no trace. Validation runs first — the log must never
		// hold a record ApplyEvents would refuse on replay.
		if t.wal != nil && t.db.HasPendingEvents() {
			if err := t.db.ValidateEvents(); err != nil {
				t.db.TruncateEvents()
				return nil, err
			}
			if err := t.walAppend(root); err != nil {
				t.db.TruncateEvents()
				return nil, fmt.Errorf("tintin: wal append: %w", err)
			}
		}
		as := root.Child("apply")
		applyStart := time.Now()
		err := t.db.ApplyEvents()
		as.End()
		if err != nil {
			return nil, err
		}
		t.met.applyNS.ObserveDuration(time.Since(applyStart))
		res.Committed = true
		if err := t.maybeCheckpoint(root); err != nil {
			return nil, err
		}
		return res, nil
	}
	ts := root.Child("truncate")
	t.db.TruncateEvents()
	ts.End()
	return res, nil
}

// ViewsFor returns the view names and their SQL for an assertion, for
// inspection (demo feature: show the generated incremental queries).
func (t *Tool) ViewsFor(name string) ([]string, []string, error) {
	a := t.Assertion(name)
	if a == nil {
		return nil, nil, fmt.Errorf("tintin: no assertion %s", name)
	}
	sqls := make([]string, len(a.Views))
	for i, v := range a.Views {
		sqls[i] = sqlparser.FormatSelect(t.db.View(v))
	}
	return append([]string(nil), a.Views...), sqls, nil
}

// Stats summarizes the compiled state (used by the CLI and tests) and,
// when the tool was built with Options.Metrics, carries a point-in-time
// runtime snapshot of every commit-path metric.
type Stats struct {
	Assertions  int      `json:"assertions"`
	EDCs        int      `json:"edcs"`
	Discarded   int      `json:"discarded"`
	Views       int      `json:"views"`
	EventTables []string `json:"event_tables"`
	// Runtime is the registry snapshot (nil when metrics are unwired).
	Runtime *obs.Snapshot `json:"runtime,omitempty"`
}

// Save persists the full tool state — the database (including event tables,
// pending events and the generated views) plus the assertion definitions —
// so a TINTIN installation survives a restart, matching the demo's "TINTIN
// can be disconnected from SQL Server" claim.
func (t *Tool) Save(w io.Writer) error {
	if err := t.db.Save(w); err != nil {
		return err
	}
	sqls := make([]string, 0, len(t.order))
	for _, n := range t.order {
		sqls = append(sqls, t.asserts[n].SQL)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sqls); err != nil {
		return err
	}
	return storage.WriteBlock(w, storage.MagicAssertions, buf.Bytes())
}

// LoadTool restores a tool saved with Save: the database is reconstructed
// and every assertion recompiled (deterministically reproducing the views).
func LoadTool(r io.Reader, opts Options) (*Tool, error) {
	db, err := storage.Load(r)
	if err != nil {
		return nil, err
	}
	payload, err := storage.ReadBlock(r, storage.MagicAssertions)
	if err != nil {
		return nil, err
	}
	var sqls []string
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&sqls); err != nil {
		return nil, fmt.Errorf("tintin: snapshot assertions: %w", err)
	}
	// Views are regenerated by recompiling; drop the persisted copies.
	for _, vn := range db.ViewNames() {
		if err := db.DropView(vn); err != nil {
			return nil, err
		}
	}
	tool := New(db, opts)
	for _, sql := range sqls {
		if _, err := tool.AddAssertion(sql); err != nil {
			return nil, fmt.Errorf("tintin: recompiling persisted assertion: %w", err)
		}
	}
	return tool, nil
}

// Stats returns compilation statistics.
func (t *Tool) Stats() Stats {
	s := Stats{Assertions: len(t.asserts)}
	for _, a := range t.asserts {
		s.EDCs += len(a.EDCs.EDCs)
		s.Discarded += len(a.EDCs.Discarded)
		s.Views += len(a.Views)
	}
	var evts []string
	for _, n := range t.db.TableNames() {
		if _, _, isEvt := storage.IsEventTable(n); isEvt {
			evts = append(evts, n)
		}
	}
	sort.Strings(evts)
	s.EventTables = evts
	if t.met.reg != nil {
		snap := t.met.reg.Snapshot()
		s.Runtime = &snap
	}
	return s
}

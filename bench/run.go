package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/edc"
	"tintin/internal/logic"
	"tintin/internal/obs"
	"tintin/internal/sqlgen"
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/tpch"
	"tintin/internal/wal"
)

const (
	// setups is how many fresh set-ups one workload run times; setup_s is
	// their median.
	setups = 5
	// blocks is how many contiguous blocks a timed pass is cut into; the
	// timing metrics are medians over blocks.
	blocks = 15
	// warmupTxns clean transactions run before the clock starts, so lazy
	// index builds and the pool's cost model have settled.
	warmupTxns = 8
	// violatingOrders is the size of the warm-up violating update.
	violatingOrders = 3
	// checkpointEvery mirrors core's default CheckpointEvery.
	checkpointEvery = 256
	// probeEvery: on in-memory workloads every probeEvery-th traced
	// transaction also runs ValidateEvents and EncodeEvents.
	probeEvery = 8
)

// env is one set-up of a workload: a populated database, the installed
// tool, and the generator that models what the tables hold.
type env struct {
	w       *workload
	db      *storage.DB
	tool    *core.Tool
	opts    core.Options
	gen     *generator
	reg     *obs.Registry // traced pass only
	commits int           // committed transactions since EnableDurability
	// base-table row counts right after populate, for the model check.
	startRows map[string]int

	populate, install, prewarm, durable time.Duration
}

func (e *env) setupTime() time.Duration { return e.populate + e.install + e.prewarm + e.durable }

// setUp builds a fresh environment: populate → core.New → Install →
// AddAssertion×k → PrewarmIndexes → (EnableDurability). WAL directories
// live under tmpRoot and are removed by tearDown.
func setUp(w *workload, seed int64, traced bool, tmpRoot string) (*env, error) {
	e := &env{w: w, startRows: map[string]int{}}
	scale := tpch.ScaleOrders(w.Name, w.Orders)
	runtime.GC() // every set-up starts from a collected heap
	t0 := time.Now()
	db, tg, err := tpch.NewDatabase("bench", scale, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	e.opts = core.DefaultOptions()
	e.opts.Workers = w.Workers
	if traced {
		e.reg = obs.NewRegistry()
		e.opts.Metrics = e.reg
	}
	if w.WAL {
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, err
		}
		e.opts.WALDir = dir
		e.opts.Fsync = wal.SyncAlways
	}
	e.db, e.tool = db, core.New(db, e.opts)
	if err := e.tool.Install(); err != nil {
		return nil, err
	}
	for _, a := range w.Assertions {
		if _, err := e.tool.AddAssertion(a); err != nil {
			return nil, err
		}
	}
	t2 := time.Now()
	if err := tg.PrewarmIndexes(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	if w.WAL {
		if err := e.tool.EnableDurability(); err != nil {
			return nil, err
		}
	}
	t4 := time.Now()
	e.populate, e.install, e.prewarm, e.durable = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)

	for _, name := range db.BaseTableNames() {
		e.startRows[name] = db.MustTable(name).Len()
	}
	e.gen = newGenerator(db, scale, seed)
	return e, nil
}

func (e *env) tearDown() {
	e.tool.Close()
	if e.opts.WALDir != "" {
		os.RemoveAll(e.opts.WALDir)
	}
}

// outcome is what the system answered for one transaction.
type outcome struct {
	Committed    bool
	Cancelled    int // CommitResult.CancelledEvents; -1 when the path does not report it
	ViewsChecked int // -1 likewise
	Rows         int // event rows the system took
}

// commit hands one batch to the system the way a session does and returns
// the verdict. This is the transaction: the caller's clock brackets it.
func (e *env) commit(b *batch, u *tpch.Update, script string) (outcome, error) {
	if e.w.SQL {
		stmts, err := sqlparser.ParseScript(script)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{Cancelled: -1, ViewsChecked: -1}
		eng := e.tool.Engine()
		for _, st := range stmts {
			r, err := eng.ExecStatement(st)
			if err != nil {
				return out, err
			}
			out.Rows += r.RowsAffected
			out.Committed = r.Message == "committed"
		}
		if out.Committed {
			e.commits++
		}
		return out, nil
	}
	if err := u.Stage(e.db); err != nil {
		return outcome{}, err
	}
	res, err := e.tool.SafeCommit()
	if err != nil {
		return outcome{}, err
	}
	if res.Committed {
		e.commits++
	}
	return outcome{Committed: res.Committed, Cancelled: res.CancelledEvents, ViewsChecked: res.ViewsChecked, Rows: b.rows()}, nil
}

// input renders the batch into what commit takes; it runs outside the clock.
func (e *env) input(b *batch) (*tpch.Update, string) {
	if e.w.SQL {
		return nil, b.sql()
	}
	return b.update(), ""
}

// expected reports whether the outcome is the one the generator predicts.
func expected(b *batch, o outcome) bool {
	if o.Committed != (b.violating == 0) || o.Rows != b.rows() {
		return false
	}
	return o.Cancelled < 0 || o.Cancelled == len(b.pairs)
}

// warmUp runs the violating update — it must be rejected with one violation
// row per line-item-less order and leave every table as it was — and then
// the untimed clean transactions.
func (e *env) warmUp() error {
	b := e.gen.violation(violatingOrders)
	u, script := e.input(b)
	// Stage and look at the violation rows with Check, which commits
	// nothing; then let the session's own commit call reject the update.
	if e.w.SQL {
		if _, err := e.tool.Engine().ExecSQL(script[:len(script)-len("CALL safeCommit;\n")]); err != nil {
			return err
		}
	} else if err := u.Stage(e.db); err != nil {
		return err
	}
	res, err := e.tool.Check()
	if err != nil {
		return err
	}
	rows := 0
	for _, v := range res.Violations {
		if v.Assertion != "atleastonelineitem" {
			return fmt.Errorf("violating update flagged by %s", v.Assertion)
		}
		rows += len(v.Rows)
	}
	if rows != violatingOrders {
		return fmt.Errorf("violating update: %d violation rows, want %d", rows, violatingOrders)
	}
	e.db.TruncateEvents()
	o, err := e.commit(b, u, script)
	if err != nil {
		return err
	}
	if !expected(b, o) {
		return fmt.Errorf("violating update: outcome %+v", o)
	}
	if err := e.checkRowCounts(); err != nil {
		return fmt.Errorf("after rejected update: %w", err)
	}
	for i := 0; i < warmupTxns; i++ {
		b := e.gen.next(e.w.Rows, !e.w.SQL)
		u, script := e.input(b)
		o, err := e.commit(b, u, script)
		if err != nil {
			return err
		}
		if !expected(b, o) {
			return fmt.Errorf("warm-up transaction %d: outcome %+v", i, o)
		}
	}
	return nil
}

// pass is what one measured pass produced.
type pass struct {
	durs     []time.Duration // per transaction, in order
	txnRows  []int           // event rows per transaction
	outcomes []outcome
	rows     int
	allocs   uint64
	failed   int
	busy     time.Duration // summed transaction time
}

// blockStats cuts the pass into contiguous blocks of transactions and
// returns the median over blocks of the block's median latency and of its
// throughput (event rows ÷ summed transaction time). Stalls that recur —
// GC cycles, checkpoints — are in every block and so in both figures; a
// burst of interference from the shared box lands in a few blocks and moves
// neither. On a durable workload a block is a whole number of checkpoint
// periods, so that every block holds as many checkpoints as the next.
func (p *pass) blockStats(durable bool) (p50 time.Duration, rowsPerSec float64, medians []time.Duration) {
	per := len(p.durs) / blocks
	if durable && per >= checkpointEvery {
		per -= per % checkpointEvery
	}
	if per < 1 {
		per = len(p.durs)
	}
	var rates []float64
	for lo := 0; lo+per <= len(p.durs); lo += per {
		var busy time.Duration
		rows := 0
		for i := lo; i < lo+per; i++ {
			busy += p.durs[i]
			rows += p.txnRows[i]
		}
		medians = append(medians, medianDur(p.durs[lo:lo+per]))
		rates = append(rates, float64(rows)/busy.Seconds())
	}
	sort.Float64s(rates)
	return medianDur(medians), rates[len(rates)/2], medians
}

// stop reports whether a pass of n transactions (or, with a budget, of that
// much wall time) is over.
func stop(i, n int, began time.Time, budget time.Duration) bool {
	if budget > 0 {
		return time.Since(began) >= budget
	}
	return i >= n
}

// timedPass is the closed loop with one client: generate an update, start
// the clock, hand it over, wait for the verdict, stop the clock. Tracing
// and metrics are off.
func (e *env) timedPass(n int, budget time.Duration) *pass {
	p := &pass{}
	ac := newAllocCounter()
	runtime.GC()
	began := time.Now()
	for i := 0; !stop(i, n, began, budget); i++ {
		b := e.gen.next(e.w.Rows, !e.w.SQL)
		u, script := e.input(b)
		a0, t0 := ac.read(), time.Now()
		o, err := e.commit(b, u, script)
		d := time.Since(t0)
		p.allocs += ac.read() - a0
		if err != nil || !expected(b, o) {
			p.failed++
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: transaction %d: %v\n", e.w.Name, i, err)
			}
			e.db.TruncateEvents()
		}
		p.durs = append(p.durs, d)
		p.txnRows = append(p.txnRows, b.rows())
		p.outcomes = append(p.outcomes, o)
		p.busy += d
		p.rows += b.rows()
	}
	return p
}

// Span names of the traced pass; layer names are module names.
const (
	spanParse      = "sqlparser.parse"
	spanExecInsert = "engine.exec_insert"
	spanExecDelete = "engine.exec_delete"
	spanStage      = "storage.stage"
	spanCheck      = "core.check"
	spanValidate   = "storage.validate"
	spanEncode     = "storage.encode"
	spanAppend     = "wal.append"
	spanApply      = "storage.apply"
	spanTruncate   = "storage.truncate"
	spanTruncEmpty = "storage.truncate_empty"
	spanCheckpoint = "wal.checkpoint"
)

// traced is what the traced pass produced.
type traced struct {
	rec     *recorder
	txnRows []int // event rows per transaction
	failed  int
	// per transaction, from CommitResult
	normalize, check, prepass []time.Duration
	viewsChecked, viewsSkip   int
	views                     map[string][]time.Duration
	// bytes EncodeEvents produced and the rows they held; bytes appended
	encodeBytes, encodeRows, walBytes int
}

// tracedPass performs each commit itself, layer by layer, through public
// functions only, in the order Tool.safeCommit uses: stage → Tool.Check →
// (ValidateEvents → EncodeEvents → Store.Append, durable only) →
// ApplyEvents → (checkpoint every 256). An in-memory safeCommit neither
// validates separately nor encodes; every probeEvery-th transaction runs
// both anyway, so their cost is on record. The extra calls warm the caches
// and move GC work, so that transaction is marked a probe and its times stay
// out of every other figure.
func (e *env) tracedPass(n int, budget time.Duration, store *wal.Store) (*traced, error) {
	t := &traced{rec: newRecorder(), views: map[string][]time.Duration{}}
	rec := t.rec
	eng := e.tool.Engine()
	var buf bytes.Buffer
	runtime.GC()
	began := time.Now()
	for i := 0; !stop(i, n, began, budget); i++ {
		b := e.gen.next(e.w.Rows, !e.w.SQL)
		u, script := e.input(b)
		o := outcome{Rows: b.rows()}

		durable := store != nil
		probed := !durable && i%probeEvery == probeEvery-1
		root := rec.open(i, 0, "txn", probed)
		var err error
		if e.w.SQL {
			var stmts []sqlparser.Statement
			_, err = rec.do(root, spanParse, false, func() (err error) {
				stmts, err = sqlparser.ParseScript(script)
				return err
			})
			o.Rows = 0
			for _, st := range stmts {
				name := spanExecInsert
				switch st.(type) {
				case *sqlparser.Delete:
					name = spanExecDelete
				case *sqlparser.Call:
					continue // the layered commit below stands in for CALL safeCommit
				}
				if err != nil {
					break
				}
				_, err = rec.do(root, name, false, func() error {
					r, err := eng.ExecStatement(st)
					if err == nil {
						o.Rows += r.RowsAffected
					}
					return err
				})
			}
		} else {
			_, err = rec.do(root, spanStage, false, func() error { return u.Stage(e.db) })
		}
		if err != nil {
			return nil, fmt.Errorf("transaction %d: %w", i, err)
		}

		var res *core.CommitResult
		if _, err = rec.do(root, spanCheck, false, func() (err error) {
			res, err = e.tool.Check()
			return err
		}); err != nil {
			return nil, fmt.Errorf("transaction %d: %w", i, err)
		}
		o.Cancelled, o.ViewsChecked = res.CancelledEvents, res.ViewsChecked

		if len(res.Violations) == 0 {
			if durable || probed {
				if _, err = rec.do(root, spanValidate, probed, e.db.ValidateEvents); err != nil {
					return nil, err
				}
				buf.Reset()
				if _, err = rec.do(root, spanEncode, probed, func() error { return e.db.EncodeEvents(&buf) }); err != nil {
					return nil, err
				}
				t.encodeBytes += buf.Len()
				t.encodeRows += b.rows()
			}
			if durable {
				if _, err = rec.do(root, spanAppend, false, func() error {
					_, err := store.Append(buf.Bytes())
					return err
				}); err != nil {
					return nil, err
				}
				t.walBytes += buf.Len() + walRecordHeader
			}
			if _, err = rec.do(root, spanApply, false, e.db.ApplyEvents); err != nil {
				return nil, err
			}
			o.Committed = true
			e.commits++
			if durable && e.commits%checkpointEvery == 0 {
				if _, err = rec.do(root, spanCheckpoint, false, e.tool.Checkpoint); err != nil {
					return nil, err
				}
			}
		} else {
			rec.do(root, spanTruncate, false, func() error { e.db.TruncateEvents(); return nil })
		}
		rec.close(root)
		// The fixed cost every commit pays, measured beside the
		// transaction: truncating event tables that are already empty.
		rec.do(root, spanTruncEmpty, true, func() error { e.db.TruncateEvents(); return nil })

		if !expected(b, o) {
			t.failed++
		}
		t.txnRows = append(t.txnRows, b.rows())
		t.normalize = append(t.normalize, res.NormalizeDuration)
		t.check = append(t.check, res.Duration)
		var inViews time.Duration
		for _, vd := range res.ViewDurations {
			t.views[vd.View] = append(t.views[vd.View], vd.Duration)
			inViews += vd.Duration
		}
		t.prepass = append(t.prepass, res.Duration-inViews)
		t.viewsChecked += res.ViewsChecked
		t.viewsSkip += res.ViewsSkipped
	}
	return t, nil
}

// walRecordHeader is internal/wal's per-record framing:
// payloadLen(4) crc(4) seq(8) type(1).
const walRecordHeader = 17

// checkRowCounts compares every base table's size with the generator's
// model: orders and lineitem as modelled, everything else as populated.
func (e *env) checkRowCounts() error {
	for name, want := range e.startRows {
		switch name {
		case "orders":
			want = len(e.gen.live)
		case "lineitem":
			want = e.gen.lineitems
		}
		if got := e.db.MustTable(name).Len(); got != want {
			return fmt.Errorf("table %s holds %d rows, the model says %d", name, got, want)
		}
	}
	return nil
}

// verify is the end-of-pass output check: row counts equal the model,
// tables ended within 10% of their starting size, no foreign key dangles,
// and the non-incremental checker finds no violation in the final state.
func (e *env) verify() error {
	if err := e.checkRowCounts(); err != nil {
		return err
	}
	for name, start := range e.startRows {
		got := e.db.MustTable(name).Len()
		if d := got - start; d*10 > start || -d*10 > start {
			return fmt.Errorf("table %s drifted from %d to %d rows: the run was not stationary", name, start, got)
		}
	}
	if issues := e.db.CheckForeignKeys(); len(issues) > 0 {
		return fmt.Errorf("%d foreign-key violations, first: %s", len(issues), issues[0])
	}
	// The baseline evaluates the assertions' own queries on the base
	// tables; capture stays on, it only reads.
	bc, err := baseline.New(e.db, e.w.Assertions)
	if err != nil {
		return err
	}
	res, err := bc.Check()
	if err != nil {
		return err
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("baseline checker: final state violates %s", res.Violations[0].Assertion)
	}
	return nil
}

// recoverCheck closes the durable tool, reopens it with core.OpenDurable
// and requires the recovered base tables to equal the live ones row for
// row. It is a clean-restart equivalence check; crash semantics belong to
// internal/wal's fault-injection matrix.
func (e *env) recoverCheck() (time.Duration, error) {
	if err := e.tool.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	re, err := core.OpenDurable(e.opts, func() (*core.Tool, error) {
		return nil, fmt.Errorf("store at %s lost its snapshot", e.opts.WALDir)
	})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	defer re.Close()
	for _, name := range e.db.BaseTableNames() {
		live, got := e.db.MustTable(name), re.DB().Table(name)
		if got == nil || got.Len() != live.Len() {
			return 0, fmt.Errorf("recovered table %s differs in size", name)
		}
		var missing sqltypes.Row
		live.Scan(func(r sqltypes.Row) bool {
			if !got.ContainsRow(r) {
				missing = r
			}
			return missing == nil
		})
		if missing != nil {
			return 0, fmt.Errorf("recovered table %s lacks row %s", name, missing)
		}
	}
	return d, nil
}

// checkpointTime is the median of five Tool.Checkpoint calls on the final
// state.
func (e *env) checkpointTime() (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := e.tool.Checkpoint(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDur(ds), nil
}

// catalog adapts the database to the compile pipeline's schema interfaces,
// as core does for its own calls.
type catalog struct{ db *storage.DB }

func (c catalog) ForeignKeys(name string) []edc.FK {
	t := c.db.Table(name)
	if t == nil {
		return nil
	}
	var out []edc.FK
	for _, fk := range t.Schema().ForeignKeys {
		out = append(out, edc.FK{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns})
	}
	return out
}

func (c catalog) TableColumns(name string) ([]string, bool) {
	if base, _, isEvt := storage.IsEventTable(name); isEvt {
		name = base
	}
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema().ColumnNames(), true
}

func (c catalog) PrimaryKey(name string) []string {
	if t := c.db.Table(name); t != nil {
		return t.Schema().PrimaryKey
	}
	return nil
}

// compileTimes are the install-time layers of one assertion.
type compileTimes struct{ parse, translate, generate, sqlgen, prepare time.Duration }

// compileReplay walks the running-example assertion through the install
// pipeline by hand — parse → logic.Translate → edc.Generate → sqlgen.Select
// → PrepareView + EnsureIndexes — under a name of its own, and removes the
// views again.
func (e *env) compileReplay() (compileTimes, error) {
	const name = "benchreplay"
	src := strings.Replace(tpch.AssertionAtLeastOneLineItem, "atLeastOneLineItem", name, 1)
	info, eng := catalog{e.db}, e.tool.Engine()
	var ct compileTimes

	t0 := time.Now()
	st, err := sqlparser.Parse(src)
	if err != nil {
		return ct, err
	}
	ct.parse = time.Since(t0)

	t0 = time.Now()
	tr, err := logic.Translate(name, st.(*sqlparser.CreateAssertion).Check, info)
	if err != nil {
		return ct, err
	}
	ct.translate = time.Since(t0)

	t0 = time.Now()
	set, err := edc.Generate(tr, info, e.opts.EDC)
	if err != nil {
		return ct, err
	}
	ct.generate = time.Since(t0)

	t0 = time.Now()
	gen := sqlgen.New(info, set.Rules)
	sels := make([]*sqlparser.Select, len(set.EDCs))
	for i, d := range set.EDCs {
		if sels[i], err = gen.Select(d); err != nil {
			return ct, err
		}
	}
	ct.sqlgen = time.Since(t0)

	t0 = time.Now()
	for i, sel := range sels {
		v := sqlgen.ViewName(name, i)
		if err := e.db.CreateView(v, sel); err != nil {
			return ct, err
		}
		defer func() {
			e.db.DropView(v)
			eng.ForgetPlan(v)
		}()
		p, err := eng.PrepareView(v)
		if err != nil {
			return ct, err
		}
		if err := p.EnsureIndexes(); err != nil {
			return ct, err
		}
	}
	ct.prepare = time.Since(t0)
	return ct, nil
}

func sortDurs(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// medianDur returns the median of ds (the upper one for even lengths),
// sorting a copy.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sortDurs(s)
	return s[len(s)/2]
}

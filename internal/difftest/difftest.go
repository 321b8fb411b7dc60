// Package difftest implements a differential fuzzing oracle for the TINTIN
// pipeline. The repository contains two independent implementations of the
// same question — "does this update stream violate the assertions?":
//
//   - the incremental method: assertion → denial → EDCs → compiled event
//     views checked by core.Tool.SafeCommit;
//   - the baseline method: apply the update to a clone and re-run the
//     original assertion queries in full (internal/baseline).
//
// Their agreement on arbitrary schemas, assertions and update streams is a
// strong end-to-end correctness oracle: any divergence is a bug in one of
// them. On top of the incremental/baseline axis, the driver runs the same
// stream through every execution mode of the incremental checker — serial,
// parallel, parallel fail-fast, fail-fast, and group commit — and requires
// them to agree with each other bit-for-bit. The fail-fast mode stages its
// insertions as multi-row SQL INSERT text, so the parser's literal rows and
// the engine's INSERT path are under the same oracle.
//
// Everything is driven deterministically from a byte stream (the fuzzing
// input): schema shape, assertion templates, literals, row values, batch
// boundaries and insert/delete choices. Exhausted input reads as zero, so
// every byte string is a valid case.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/edc"
	"tintin/internal/engine"
	"tintin/internal/sched"
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// --- deterministic byte-stream reader ---

type rdr struct {
	data []byte
	pos  int
}

// byte returns the next input byte, or 0 once the stream is exhausted.
func (r *rdr) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *rdr) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.byte()) % n
}

// pct reports true with probability p/100 (over the byte stream).
func (r *rdr) pct(p int) bool { return r.intn(100) < p }

// --- literal pools ---

// Integer literals skew small (so generated data actually crosses the
// thresholds) with the 64-bit edges mixed in to exercise parser and
// comparison extremes.
var intLits = []string{
	"0", "1", "2", "3", "5", "-1", "-3", "10", "42",
	"2147483648", "9223372036854775807", "-9223372036854775808",
}

var floatLits = []string{"0.0", "1.5", "-2.5", "0.5", "100.25", "1e6", "-0.001"}

var strLits = []string{"'a'", "'b'", "'bad'", "''", "'zz'"}

func (r *rdr) intLit() string   { return intLits[r.intn(len(intLits))] }
func (r *rdr) floatLit() string { return floatLits[r.intn(len(floatLits))] }
func (r *rdr) strLit() string   { return strLits[r.intn(len(strLits))] }

// --- case shape ---

// caseShape is the schema configuration decoded from the stream's first
// byte. The schema is always two tables:
//
//	p(pk INTEGER PK, a INTEGER, b REAL, s VARCHAR)
//	c(pk INTEGER PK, fk INTEGER, v INTEGER, w REAL)
//
// with per-case choices of NOT NULL columns and an optional declared
// foreign key c.fk → p.pk. When the FK is declared the generated stream is
// FK-consistent (child inserts reference live parents, parents are never
// deleted) so that the EDC-level FK optimization remains sound.
type caseShape struct {
	declareFK bool
	aNotNull  bool
	fkNotNull bool
	sNotNull  bool
}

func (s caseShape) ddl() string {
	nn := func(b bool) string {
		if b {
			return " NOT NULL"
		}
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE p (pk INTEGER NOT NULL, a INTEGER%s, b REAL, s VARCHAR%s, PRIMARY KEY (pk));\n",
		nn(s.aNotNull), nn(s.sNotNull))
	fmt.Fprintf(&sb, "CREATE TABLE c (pk INTEGER NOT NULL, fk INTEGER%s, v INTEGER, w REAL, PRIMARY KEY (pk)",
		nn(s.fkNotNull))
	if s.declareFK {
		sb.WriteString(", FOREIGN KEY (fk) REFERENCES p (pk)")
	}
	sb.WriteString(");")
	return sb.String()
}

// assertionSQL renders one assertion from the template chosen by the next
// byte. Templates cover the supported fragment: single-table filters,
// joins, correlated NOT EXISTS, NOT IN / IN subqueries (the tri-valued
// NULL paths), IN lists, IS NULL guards, and COUNT/SUM comparisons.
func (r *rdr) assertionSQL(name string) string {
	body := ""
	switch r.intn(10) {
	case 0: // single-table integer filter
		body = fmt.Sprintf("NOT EXISTS (SELECT * FROM p WHERE p.a > %s)", r.intLit())
	case 1: // conjunction over REAL and INTEGER columns
		body = fmt.Sprintf("NOT EXISTS (SELECT * FROM p WHERE p.b > %s AND p.a >= %s)",
			r.floatLit(), r.intLit())
	case 2: // join through the (possibly undeclared) foreign key
		body = fmt.Sprintf("NOT EXISTS (SELECT * FROM p AS x, c AS y WHERE x.pk = y.fk AND y.v > %s)",
			r.intLit())
	case 3: // referential integrity via correlated NOT EXISTS
		body = "NOT EXISTS (SELECT * FROM c AS y WHERE NOT EXISTS (SELECT * FROM p AS x WHERE x.pk = y.fk))"
	case 4: // referential integrity via NOT IN (tri-valued logic on NULL fk)
		body = "NOT EXISTS (SELECT * FROM c AS y WHERE y.fk NOT IN (SELECT x.pk FROM p AS x))"
	case 5: // IN list over VARCHAR plus an integer guard
		body = fmt.Sprintf("NOT EXISTS (SELECT * FROM p WHERE p.s IN ('bad', 'zz') AND p.a > %s)", r.intLit())
	case 6: // COUNT with a filter against a small bound
		body = fmt.Sprintf("(SELECT COUNT(*) FROM p WHERE p.a > %s) <= %d", r.intLit(), r.intn(4))
	case 7: // SUM over a NULL-able column (SUM of nothing is NULL)
		body = fmt.Sprintf("(SELECT SUM(c.v) FROM c WHERE c.v > 0) <= %d", 5+r.intn(30))
	case 8: // IS NULL guard
		body = fmt.Sprintf("NOT EXISTS (SELECT * FROM p WHERE p.s IS NULL AND p.a > %s)", r.intLit())
	default: // IN subquery in positive position
		body = "NOT EXISTS (SELECT * FROM p AS x WHERE x.pk IN (SELECT y.fk FROM c AS y WHERE y.v < 0))"
	}
	return fmt.Sprintf("CREATE ASSERTION %s CHECK (%s)", name, body)
}

// --- row value generation ---

func (r *rdr) smallInt() sqltypes.Value { return sqltypes.NewInt(int64(r.intn(25)) - 5) }

func (r *rdr) intVal(notNull bool) sqltypes.Value {
	if !notNull && r.pct(25) {
		return sqltypes.Null
	}
	return r.smallInt()
}

func (r *rdr) floatVal() sqltypes.Value {
	if r.pct(20) {
		return sqltypes.Null
	}
	return sqltypes.NewFloat(float64(r.intn(400))/4.0 - 10)
}

var strVals = []string{"a", "b", "bad", "", "zz"}

func (r *rdr) strVal(notNull bool) sqltypes.Value {
	if !notNull && r.pct(25) {
		return sqltypes.Null
	}
	return sqltypes.NewString(strVals[r.intn(len(strVals))])
}

// --- the differential runner ---

type mode struct {
	name string
	db   *storage.DB
	tool *core.Tool
	sql  bool // stage insertions as SQL text (stageOpsSQL)
}

// Run executes one full differential case from the byte stream. It returns
// nil when every execution mode agrees with the baseline on every batch,
// and a descriptive error on the first divergence. Errors from Run are
// real bugs (in the incremental pipeline, the baseline, or the oracle's
// own event staging) — never an artifact of odd input bytes.
func Run(data []byte) error {
	r := &rdr{data: data}

	flags := r.byte()
	shape := caseShape{
		declareFK: flags&1 != 0,
		aNotNull:  flags&2 != 0,
		fkNotNull: flags&4 != 0,
		sNotNull:  flags&8 != 0,
	}
	if shape.declareFK && shape.fkNotNull {
		// A NOT NULL declared FK would force every child insert to find a
		// parent; allow NULL fk so the stream generator stays total.
		shape.fkNotNull = false
	}

	// Assertion set: render first, accept the ones the pipeline takes.
	// (Templates are all well-typed, but EDC blow-up guards may reject.)
	nAsserts := 1 + r.intn(3)
	var candidates []string
	for i := 0; i < nAsserts; i++ {
		candidates = append(candidates, r.assertionSQL(fmt.Sprintf("fz%d", i)))
	}

	newMode := func(name string, opts core.Options) (*mode, error) {
		db := storage.NewDB(name)
		if _, err := engine.New(db).ExecSQL(shape.ddl()); err != nil {
			return nil, fmt.Errorf("%s: ddl: %w", name, err)
		}
		tool := core.New(db, opts)
		if err := tool.Install(); err != nil {
			return nil, fmt.Errorf("%s: install: %w", name, err)
		}
		return &mode{name: name, db: db, tool: tool}, nil
	}

	base := core.Options{EDC: edc.DefaultOptions(), SkipEmptyEventViews: true}
	parallel := base
	parallel.Workers = 4
	failfast := base
	failfast.FailFast = true
	parallelFailfast := parallel
	parallelFailfast.FailFast = true

	modes := make([]*mode, 0, 4)
	for _, m := range []struct {
		name string
		opts core.Options
	}{
		{"serial", base}, {"parallel", parallel}, {"parallel-failfast", parallelFailfast}, {"failfast", failfast},
	} {
		mm, err := newMode(m.name, m.opts)
		if err != nil {
			return err
		}
		mm.sql = m.name == "failfast"
		modes = append(modes, mm)
	}
	serial := modes[0]

	group, err := newMode("group", base)
	if err != nil {
		return err
	}
	committer := group.tool.NewCommitter()
	defer committer.Close()

	var accepted []string
	for _, sql := range candidates {
		if _, err := serial.tool.AddAssertion(sql); err != nil {
			continue // rejected by the pipeline's guards; skip consistently
		}
		accepted = append(accepted, sql)
	}
	for _, m := range append(modes[1:], group) {
		for _, sql := range accepted {
			if _, err := m.tool.AddAssertion(sql); err != nil {
				return fmt.Errorf("difftest: %s: assertion accepted by serial but rejected: %v\n%s", m.name, err, sql)
			}
		}
	}

	bl, err := baseline.New(serial.db, accepted)
	if err != nil {
		return fmt.Errorf("baseline setup: %w", err)
	}

	st := &streamState{
		r:      r,
		shape:  shape,
		live:   map[string][]sqltypes.Row{"p": nil, "c": nil},
		nextPK: map[string]int64{"p": 1, "c": 1},
	}

	var handed handedRows
	nBatches := 1 + r.intn(4)
	for b := 0; b < nBatches; b++ {
		ops := st.genBatch()
		if len(ops) == 0 {
			continue
		}

		// Stage the batch into every directly-checked mode. The group mode
		// is handed the ops' rows themselves.
		for _, m := range modes {
			var err error
			if m.sql {
				err = stageOpsSQL(m.tool.Engine(), m.db, ops)
			} else {
				err = stageOps(m.db, ops)
			}
			if err != nil {
				return fmt.Errorf("batch %d: %s: staging: %w", b, m.name, err)
			}
			handed.recordStaged(m.db)
		}
		for _, op := range ops {
			handed.record(op.Row)
		}

		// Baseline verdict first: CheckAfter needs the still-staged events.
		bres, err := bl.CheckAfter(serial.db)
		if err != nil {
			return fmt.Errorf("batch %d: baseline: %w", b, err)
		}
		blSet := map[string]bool{}
		for _, v := range bres.Violations {
			blSet[v.Assertion] = true
		}

		results := make([]*core.CommitResult, len(modes))
		for i, m := range modes {
			res, err := m.tool.SafeCommit()
			if err != nil {
				return fmt.Errorf("batch %d: %s: safeCommit: %w", b, m.name, err)
			}
			results[i] = res
		}
		serialRes := results[0]

		// Group commit: the whole batch as one delta must reproduce the
		// serial verdict exactly.
		groupRes, err := committer.Commit(sched.Delta{Ops: ops})
		if err != nil {
			return fmt.Errorf("batch %d: group: %w", b, err)
		}

		// (1) incremental vs baseline on violated-assertion sets.
		if d := diffSets(violatedAssertions(serialRes), blSet); d != "" {
			return fmt.Errorf("difftest: batch %d: serial vs baseline verdicts differ: %s\nassertions:\n%s\nops: %s",
				b, d, strings.Join(accepted, "\n"), fmtOps(ops))
		}

		// (2) parallel must match serial row-for-row.
		if err := sameViolations(serialRes, results[1]); err != nil {
			return fmt.Errorf("batch %d: serial vs parallel: %w\nops: %s", b, err, fmtOps(ops))
		}

		// (3) fail-fast, at width 4 and 1: same violated views, witness =
		// serial's first row.
		for _, i := range []int{2, 3} {
			if err := failFastAgrees(serialRes, results[i]); err != nil {
				return fmt.Errorf("batch %d: serial vs %s: %w\nops: %s", b, modes[i].name, err, fmtOps(ops))
			}
		}

		// (4) group commit agrees with serial on verdict and assertions.
		if groupRes.Committed != serialRes.Committed {
			return fmt.Errorf("difftest: batch %d: group committed=%v, serial committed=%v\nops: %s",
				b, groupRes.Committed, serialRes.Committed, fmtOps(ops))
		}
		if d := diffSets(violatedAssertions(serialRes), violatedAssertions(groupRes)); d != "" {
			return fmt.Errorf("difftest: batch %d: serial vs group verdicts differ: %s", b, d)
		}

		// (5) no row handed to storage, in this batch or an earlier one, has
		// changed.
		if err := handed.check(); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}

		// (6) all five databases hold identical committed state.
		want := snapshot(serial.db)
		for _, m := range append(modes[1:], group) {
			if got := snapshot(m.db); got != want {
				return fmt.Errorf("difftest: batch %d: %s state diverged:\n%s\nvs serial:\n%s", b, m.name, got, want)
			}
		}

		if serialRes.Committed {
			st.apply(ops)
		}
	}
	return nil
}

// streamState tracks the committed contents the generator may reference.
type streamState struct {
	r      *rdr
	shape  caseShape
	live   map[string][]sqltypes.Row
	nextPK map[string]int64
}

// genBatch produces 1–6 insert/delete ops respecting primary-key and
// (when declared) foreign-key discipline: inserts use fresh keys, deletes
// target committed rows at most once per batch, and a batch never deletes
// and re-inserts the same key (ApplyEvents is order-agnostic).
func (st *streamState) genBatch() []sched.Op {
	r := st.r
	n := 1 + r.intn(6)
	usedDel := map[string]map[string]bool{"p": {}, "c": {}}
	var ops []sched.Op
	for i := 0; i < n; i++ {
		if r.pct(35) {
			if op, ok := st.genDelete(usedDel); ok {
				ops = append(ops, op)
				continue
			}
		}
		ops = append(ops, st.genInsert())
	}
	return ops
}

func (st *streamState) genInsert() sched.Op {
	r := st.r
	table := "p"
	if r.pct(50) {
		table = "c"
	}
	pk := st.nextPK[table]
	st.nextPK[table]++
	var row sqltypes.Row
	if table == "p" {
		row = sqltypes.Row{
			sqltypes.NewInt(pk),
			r.intVal(st.shape.aNotNull),
			r.floatVal(),
			r.strVal(st.shape.sNotNull),
		}
	} else {
		fk := sqltypes.Null
		if st.shape.declareFK {
			// FK-consistent stream: reference a live parent, or NULL.
			if parents := st.live["p"]; len(parents) > 0 && !r.pct(20) {
				fk = parents[r.intn(len(parents))][0]
			}
		} else if st.shape.fkNotNull || !r.pct(25) {
			fk = r.smallInt()
		}
		row = sqltypes.Row{sqltypes.NewInt(pk), fk, r.intVal(false), r.floatVal()}
	}
	return sched.Op{Table: table, Row: row}
}

func (st *streamState) genDelete(used map[string]map[string]bool) (sched.Op, bool) {
	r := st.r
	// With a declared FK, parents are never deleted (keeps the stream
	// FK-consistent without cascade logic).
	tables := []string{"p", "c"}
	if st.shape.declareFK {
		tables = []string{"c"}
	}
	table := tables[r.intn(len(tables))]
	rows := st.live[table]
	if len(rows) == 0 {
		return sched.Op{}, false
	}
	start := r.intn(len(rows))
	for off := 0; off < len(rows); off++ {
		row := rows[(start+off)%len(rows)]
		key := row[0].String()
		if !used[table][key] {
			used[table][key] = true
			return sched.Op{Table: table, Row: row.Clone(), Delete: true}, true
		}
	}
	return sched.Op{}, false
}

// apply folds a committed batch into the live model.
func (st *streamState) apply(ops []sched.Op) {
	for _, op := range ops {
		if op.Delete {
			rows := st.live[op.Table]
			for i, row := range rows {
				if sqltypes.IdenticalRows(row, op.Row) {
					st.live[op.Table] = append(rows[:i:i], rows[i+1:]...)
					break
				}
			}
		} else {
			st.live[op.Table] = append(st.live[op.Table], op.Row)
		}
	}
}

// handedRows records rows handed to storage, each with its encoding at the
// time. Storage never writes into a row it is handed (see storage.DB on row
// ownership), and check proves it.
type handedRows struct {
	rows []sqltypes.Row
	keys []string
}

func (h *handedRows) record(r sqltypes.Row) {
	h.rows = append(h.rows, r)
	h.keys = append(h.keys, r.Key())
}

// recordStaged records every row db has staged: the rows it was handed and
// the base rows its deletions matched.
func (h *handedRows) recordStaged(db *storage.DB) {
	for _, name := range db.TableNames() {
		if _, _, isEvt := storage.IsEventTable(name); isEvt {
			db.MustTable(name).Scan(func(r sqltypes.Row) bool {
				h.record(r)
				return true
			})
		}
	}
}

// check fails if any recorded row now encodes differently.
func (h *handedRows) check() error {
	for i, r := range h.rows {
		if r.Key() != h.keys[i] {
			return fmt.Errorf("difftest: a row handed to storage changed after the hand-over; it is now %s", r)
		}
	}
	return nil
}

// stageOps routes a batch through the capture machinery of one database:
// inserts land in ins_T, deletes in del_T.
func stageOps(db *storage.DB, ops []sched.Op) error {
	for _, op := range ops {
		if op.Delete {
			want := op.Row
			if _, err := db.DeleteWhere(op.Table, func(r sqltypes.Row) bool {
				return sqltypes.IdenticalRows(r, want)
			}); err != nil {
				return err
			}
		} else {
			// A clone: the oracle's state must not share memory with the
			// system under test.
			if err := db.Insert(op.Table, op.Row.Clone()); err != nil {
				return err
			}
		}
	}
	return nil
}

// stageOpsSQL stages a batch the way a session does: each run of
// consecutive insertions into one table becomes one multi-row INSERT, printed
// by the sqlparser printer and run through engine.ExecSQL. Deletions are
// staged as stageOps stages them.
func stageOpsSQL(eng *engine.Engine, db *storage.DB, ops []sched.Op) error {
	for i := 0; i < len(ops); {
		if ops[i].Delete {
			if err := stageOps(db, ops[i:i+1]); err != nil {
				return err
			}
			i++
			continue
		}
		ins := &sqlparser.Insert{Table: ops[i].Table}
		for ; i < len(ops) && !ops[i].Delete && ops[i].Table == ins.Table; i++ {
			ins.Rows = append(ins.Rows, sqlparser.Tuple{Values: ops[i].Row})
		}
		sql := sqlparser.FormatStatement(ins)
		if _, err := eng.ExecSQL(sql); err != nil {
			return fmt.Errorf("difftest: %s: %w", sql, err)
		}
	}
	return nil
}

// --- comparison helpers ---

func violatedAssertions(res *core.CommitResult) map[string]bool {
	out := map[string]bool{}
	for _, v := range res.Violations {
		out[v.Assertion] = true
	}
	return out
}

func diffSets(a, b map[string]bool) string {
	var onlyA, onlyB []string
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return fmt.Sprintf("only-first=%v only-second=%v", onlyA, onlyB)
}

// viewRows canonicalizes a result's violations as view → sorted row keys.
func viewRows(res *core.CommitResult) map[string][]string {
	out := map[string][]string{}
	for _, v := range res.Violations {
		for _, row := range v.Rows {
			out[v.View] = append(out[v.View], row.String())
		}
		sort.Strings(out[v.View])
	}
	return out
}

// sameViolations requires identical violated views with identical row
// multisets (order within a view is not significant across schedules).
func sameViolations(a, b *core.CommitResult) error {
	if a.Committed != b.Committed {
		return fmt.Errorf("difftest: committed %v vs %v", a.Committed, b.Committed)
	}
	av, bv := viewRows(a), viewRows(b)
	if len(av) != len(bv) {
		return fmt.Errorf("difftest: violated views %v vs %v", keys(av), keys(bv))
	}
	for view, rows := range av {
		if fmt.Sprint(bv[view]) != fmt.Sprint(rows) {
			return fmt.Errorf("difftest: view %s rows %v vs %v", view, rows, bv[view])
		}
	}
	return nil
}

// failFastAgrees requires the fail-fast run to have flagged exactly the
// violated views, each witnessed by the serial run's first row for that
// view — the witness must be deterministic, not just any violating row.
func failFastAgrees(serial, ff *core.CommitResult) error {
	if serial.Committed != ff.Committed {
		return fmt.Errorf("difftest: committed %v vs %v", serial.Committed, ff.Committed)
	}
	firstRow := map[string]sqltypes.Row{}
	for _, v := range serial.Violations {
		if _, ok := firstRow[v.View]; !ok && len(v.Rows) > 0 {
			firstRow[v.View] = v.Rows[0]
		}
	}
	seen := map[string]bool{}
	for _, v := range ff.Violations {
		seen[v.View] = true
		want, ok := firstRow[v.View]
		if !ok {
			return fmt.Errorf("difftest: fail-fast flagged %s which serial did not", v.View)
		}
		if len(v.Rows) != 1 {
			return fmt.Errorf("difftest: fail-fast returned %d rows for %s, want 1", len(v.Rows), v.View)
		}
		if !sqltypes.IdenticalRows(v.Rows[0], want) {
			return fmt.Errorf("difftest: fail-fast witness for %s is %s, serial's first row is %s",
				v.View, v.Rows[0], want)
		}
	}
	for view := range firstRow {
		if !seen[view] {
			return fmt.Errorf("difftest: serial flagged %s which fail-fast did not", view)
		}
	}
	return nil
}

// snapshot renders the committed contents of every base table, sorted,
// for cross-database state comparison.
func snapshot(db *storage.DB) string {
	var sb strings.Builder
	for _, name := range db.BaseTableNames() {
		rows := []string{}
		db.MustTable(name).Scan(func(r sqltypes.Row) bool {
			rows = append(rows, r.String())
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&sb, "%s: %s\n", name, strings.Join(rows, " "))
	}
	return sb.String()
}

func keys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fmtOps(ops []sched.Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		verb := "ins"
		if op.Delete {
			verb = "del"
		}
		parts[i] = fmt.Sprintf("%s %s%s", verb, op.Table, op.Row)
	}
	return strings.Join(parts, "; ")
}

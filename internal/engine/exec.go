package engine

import (
	"fmt"
	"strings"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// source is one FROM item: a base table (index-probe capable) or a view,
// read through its own nested plan.
type source struct {
	alias  string
	cols   []string
	colIdx map[string]int
	table  *storage.Table // non-nil for base tables
	// view is the nested plan of a view in FROM. out holds its output for
	// the enclosing plan's current execution and fresh says whether that
	// output has been produced yet: reset clears it, the first scan of the
	// source runs the view. Unlike a table source, a view source is mutable
	// and therefore never shared between plan clones.
	view  *PreparedQuery
	out   Result
	fresh bool
}

// scope is the variable environment of one SELECT during evaluation,
// chained to the enclosing query's scope for correlated subqueries.
//
// Conjunct placement guarantees an expression is only evaluated once every
// source it references is bound, so resolution never needs to know how many
// sources are currently bound.
type scope struct {
	parent *scope
	srcs   []*source
	tuple  []sqltypes.Row // current row per source; nil when not yet bound
}

// lookup resolves a column reference against this scope chain.
func (s *scope) lookup(qual, name string) (*scope, int, int, error) {
	for cur := s; cur != nil; cur = cur.parent {
		if qual != "" {
			for i, src := range cur.srcs {
				if src.alias == qual {
					ci, ok := src.colIdx[name]
					if !ok {
						return nil, 0, 0, fmt.Errorf("engine: %s has no column %s", qual, name)
					}
					return cur, i, ci, nil
				}
			}
			continue
		}
		foundSrc, foundCol := -1, -1
		for i, src := range cur.srcs {
			if ci, ok := src.colIdx[name]; ok {
				if foundSrc >= 0 {
					return nil, 0, 0, fmt.Errorf("engine: ambiguous column %s", name)
				}
				foundSrc, foundCol = i, ci
			}
		}
		if foundSrc >= 0 {
			return cur, foundSrc, foundCol, nil
		}
	}
	if qual != "" {
		return nil, 0, 0, fmt.Errorf("engine: unknown table or alias %s", qual)
	}
	return nil, 0, 0, fmt.Errorf("engine: unknown column %s", name)
}

// exec evaluates one SELECT block (no UNION) via index nested loops.
type exec struct {
	eng   *Engine
	sel   *sqlparser.Select
	scope *scope

	// prefilters reference only constants or outer scopes and run once.
	prefilters []sqlparser.Expr
	// filters[k] holds the conjuncts first fully bound once source k is bound.
	filters [][]sqlparser.Expr
	// probes[k] holds equality conjuncts usable as index probes on source k.
	probes [][]probe
	// probeOffs[k] / probeNullSafe[k] are the probe column offsets and the
	// per-column NULL-safe mask, both fixed at plan time; probeVals[k] is
	// the buffer loop evaluates the probe values into once per visit of
	// level k, so the join loop performs index probes without allocating.
	probeOffs     [][]int
	probeNullSafe [][]bool
	probeVals     [][]sqltypes.Value
	// probeIdx[k] caches the index handle for source k, resolved on first
	// probe (or eagerly by PreparedQuery.EnsureIndexes).
	probeIdx []*storage.Index

	// levels holds the join loop's per-source visitor state, built once at
	// plan time so the hot loop never allocates closures (the per-level
	// tryRow/checkProbes/visit closures this replaces were the join loop's
	// dominant allocation).
	levels []level
	// emit is the current run's row sink, bound for the duration of run().
	emit func(sqltypes.Row) (bool, error)
	// existsFound / existsEmit are the reusable EXISTS sink: runExists runs
	// on the per-row subquery hot path, so its sink must not be a fresh
	// closure (which would allocate per outer row).
	existsFound bool
	existsEmit  func(sqltypes.Row) (bool, error)
	// inVal/inFound/inSawNull/inEmit are the reusable sink for correlated
	// IN-subquery probes, per outer row like EXISTS.
	inVal     sqltypes.Value
	inFound   bool
	inSawNull bool
	inEmit    func(sqltypes.Row) (bool, error)
	// scalarVal/scalarN/scalarEmit are the reusable scalar-subquery sink.
	scalarVal  sqltypes.Value
	scalarN    int
	scalarEmit func(sqltypes.Row) (bool, error)
	// keyScratch is the probe-key encoding buffer. It lives on the exec —
	// not the table — so every worker running its own exec clone probes a
	// shared table without contending on scratch state.
	keyScratch []byte

	// scanRange / hasRange restrict the level-0 driving scan to one slot
	// range of its table: the partitioned commit check's unit of work. Only
	// meaningful on plans whose DrivingScan reports partitionable; set
	// per-execution by QueryPartitionInto (or permanently by
	// ClonePartition), never on a shared prototype plan.
	scanRange storage.RowRange
	hasRange  bool

	// skipProject suppresses leaf projection (aggregate mode accumulates
	// from the bound scope instead).
	skipProject bool

	// subs holds the exec of every subquery block nested directly in this
	// one, compiled by planSubqueries when the block itself was: evaluation
	// only looks plans up, it never builds one.
	subs map[*sqlparser.Select]*exec
	// views lists the nested plans of the views this block and its
	// subqueries read; PreparedQuery.current re-validates them.
	views []*PreparedQuery
	// inMemo caches fully-materialized results of uncorrelated IN
	// subqueries (value-set plus null flag).
	inMemo map[*sqlparser.InSubquery]*inSet
}

// level is the reusable visitor state for one join depth: the bound method
// values stand in for the closures the loop would otherwise allocate per
// run, and cont/err carry control flow out of the storage scan callbacks.
type level struct {
	ex   *exec
	k    int
	cont bool
	err  error
	// tryFn is the probe-path visitor (bind row, filters, recurse);
	// visitFn first matches the row against the probe values, for sources
	// that have no index to do it (view output).
	tryFn   func(sqltypes.Row) bool
	visitFn func(sqltypes.Row) bool
}

// initLevels builds the per-source visitor state and the reusable row
// sinks (called at plan and clone time; the method values here are the
// only per-exec closure allocations).
func (ex *exec) initLevels() {
	ex.levels = make([]level, len(ex.scope.srcs))
	for k := range ex.levels {
		lv := &ex.levels[k]
		lv.ex = ex
		lv.k = k
		lv.tryFn = lv.tryRow
		lv.visitFn = lv.visit
	}
	ex.existsEmit = ex.emitExists
	ex.inEmit = ex.emitInProbe
	ex.scalarEmit = ex.emitScalar
}

func (ex *exec) emitExists(sqltypes.Row) (bool, error) {
	ex.existsFound = true
	return false, nil
}

func (ex *exec) emitInProbe(row sqltypes.Row) (bool, error) {
	if row[0].IsNull() {
		ex.inSawNull = true
		return true, nil
	}
	if sqltypes.Equal(ex.inVal, row[0]) {
		ex.inFound = true
		return false, nil
	}
	return true, nil
}

var errScalarCardinality = fmt.Errorf("engine: scalar subquery returned more than one row")

func (ex *exec) emitScalar(row sqltypes.Row) (bool, error) {
	ex.scalarN++
	if ex.scalarN > 1 {
		return false, errScalarCardinality
	}
	ex.scalarVal = row[0]
	return true, nil
}

// inSet is a materialized IN-subquery result.
type inSet struct {
	vals    map[string]bool
	sawNull bool
}

// subExec returns the exec planSubqueries compiled for one subquery block.
func (ex *exec) subExec(q *sqlparser.Select) (*exec, error) {
	if sub, ok := ex.subs[q]; ok {
		return sub, nil
	}
	return nil, fmt.Errorf("engine: internal: subquery evaluated before it was planned")
}

// planSubqueries compiles the exec of every subquery nested directly in e,
// rooted at this exec's scope (newExec covers each one's interior). The walk
// stops at each subquery boundary, except that the operand of IN belongs to
// this block.
func (ex *exec) planSubqueries(e sqlparser.Expr) error {
	var werr error
	sqlparser.WalkExpr(e, func(n sqlparser.Expr) bool {
		if werr != nil {
			return false
		}
		var q *sqlparser.Select
		switch x := n.(type) {
		case *sqlparser.Exists:
			q = x.Query
		case *sqlparser.InSubquery:
			q = x.Query
			werr = ex.planSubqueries(x.E)
		case *sqlparser.ScalarSubquery:
			q = x.Query
		default:
			return true
		}
		for cur := q; cur != nil && werr == nil; cur = cur.Union {
			sub, err := ex.eng.newExec(cur, ex.scope)
			if err != nil {
				werr = err
				break
			}
			if ex.subs == nil {
				ex.subs = make(map[*sqlparser.Select]*exec)
			}
			ex.subs[cur] = sub
			ex.views = append(ex.views, sub.views...)
		}
		return false
	})
	return werr
}

// existsSub evaluates [branches of] a subquery for EXISTS semantics with
// early exit.
func (ex *exec) existsSub(q *sqlparser.Select) (bool, error) {
	for cur := q; cur != nil; cur = cur.Union {
		sub, err := ex.subExec(cur)
		if err != nil {
			return false, err
		}
		found, err := sub.runExists()
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

// runExists runs the block for existence only: projection is suppressed, so
// the per-row EXISTS probes on the join hot path never materialize tuples,
// and the sink is the exec's reusable one, so the probe allocates nothing.
// No defer here — this runs per outer row, and a defer costs real time on
// the hot path; a panic that unwinds past the plain restore is repaired by
// reset() at the next execution of the plan.
func (ex *exec) runExists() (bool, error) {
	saved := ex.skipProject
	ex.skipProject = true
	ex.existsFound = false
	err := ex.run(ex.existsEmit)
	ex.skipProject = saved
	return ex.existsFound, err
}

type probe struct {
	colIdx int            // column offset in source k
	expr   sqlparser.Expr // expression bound before source k
	// nullSafe: the conjunct was col = expr OR (col IS NULL AND expr IS
	// NULL), so a NULL probe value matches the rows holding NULL; under a
	// plain col = expr it matches nothing.
	nullSafe bool
}

// newExec compiles one SELECT block and, recursively, every subquery in its
// projections and WHERE clause: the returned tree executes without planning.
func (e *Engine) newExec(sel *sqlparser.Select, outer *scope) (*exec, error) {
	sc := &scope{parent: outer}
	ex := &exec{eng: e, sel: sel, scope: sc}
	for _, tr := range sel.From {
		src, err := e.resolveSource(tr)
		if err != nil {
			return nil, err
		}
		for _, prev := range sc.srcs {
			if prev.alias == src.alias {
				return nil, fmt.Errorf("engine: duplicate alias %s in FROM", src.alias)
			}
		}
		sc.srcs = append(sc.srcs, src)
		if src.view != nil {
			ex.views = append(ex.views, src.view)
		}
	}
	sc.tuple = make([]sqltypes.Row, len(sc.srcs))
	ex.filters = make([][]sqlparser.Expr, len(sc.srcs))
	ex.probes = make([][]probe, len(sc.srcs))
	for _, c := range sqlparser.Conjuncts(sel.Where) {
		if err := ex.placeConjunct(c); err != nil {
			return nil, err
		}
	}
	ex.probeOffs = make([][]int, len(sc.srcs))
	ex.probeNullSafe = make([][]bool, len(sc.srcs))
	ex.probeVals = make([][]sqltypes.Value, len(sc.srcs))
	ex.probeIdx = make([]*storage.Index, len(sc.srcs))
	for k, ps := range ex.probes {
		if len(ps) == 0 {
			continue
		}
		ex.probeOffs[k] = make([]int, len(ps))
		ex.probeNullSafe[k] = make([]bool, len(ps))
		for i, p := range ps {
			ex.probeOffs[k][i] = p.colIdx
			ex.probeNullSafe[k][i] = p.nullSafe
		}
		ex.probeVals[k] = make([]sqltypes.Value, len(ps))
	}
	ex.initLevels()
	for _, it := range sel.Columns {
		if err := ex.planSubqueries(it.Expr); err != nil {
			return nil, err
		}
	}
	if err := ex.planSubqueries(sel.Where); err != nil {
		return nil, err
	}
	return ex, nil
}

func (e *Engine) resolveSource(tr sqlparser.TableRef) (*source, error) {
	name := strings.ToLower(tr.Table)
	alias := strings.ToLower(tr.EffectiveAlias())
	if t := e.db.Table(name); t != nil {
		cols := t.Schema().ColumnNames()
		ci := make(map[string]int, len(cols))
		for i, c := range cols {
			ci[c] = i
		}
		return &source{alias: alias, cols: cols, colIdx: ci, table: t}, nil
	}
	if v := e.db.View(name); v != nil {
		// A view body is a closed query: it compiles on its own, with no
		// outer scope, so it cannot capture the columns of whichever query
		// happens to read it.
		vp, err := e.prepare(name, v)
		if err != nil {
			return nil, fmt.Errorf("engine: evaluating view %s: %w", name, err)
		}
		cols := make([]string, len(vp.cols))
		ci := make(map[string]int, len(vp.cols))
		for i, c := range vp.cols {
			cols[i] = strings.ToLower(c)
			ci[cols[i]] = i
		}
		// SELECT * view outputs are qualified ("o.o_orderkey"); also expose
		// the bare column name when it is unambiguous and not taken by an
		// exact column name.
		bareIdx := map[string]int{}
		for i, c := range cols {
			if dot := strings.IndexByte(c, '.'); dot >= 0 {
				bare := c[dot+1:]
				if _, taken := bareIdx[bare]; taken {
					bareIdx[bare] = -1 // ambiguous
				} else {
					bareIdx[bare] = i
				}
			}
		}
		//tintin:allow nodeterminism bareIdx keys are unique by construction, so the writes commute; order never reaches results
		for bare, i := range bareIdx {
			if i < 0 {
				continue
			}
			if _, taken := ci[bare]; !taken {
				ci[bare] = i
			}
		}
		return &source{alias: alias, cols: cols, colIdx: ci, view: vp}, nil
	}
	return nil, fmt.Errorf("engine: no table or view named %s", name)
}

// maxLevel returns the greatest innermost-scope source index referenced by
// e, or -1 when e references only constants/outer scopes.
func (ex *exec) maxLevel(e sqlparser.Expr) (int, error) {
	level := -1
	var walkErr error
	sqlparser.WalkExpr(e, func(n sqlparser.Expr) bool {
		switch x := n.(type) {
		case *sqlparser.ColumnRef:
			sc, si, _, err := ex.scope.lookup(x.Qualifier, x.Name)
			if err != nil {
				if walkErr == nil {
					walkErr = err
				}
				return false
			}
			if sc == ex.scope && si > level {
				level = si
			}
		case *sqlparser.Exists, *sqlparser.InSubquery, *sqlparser.ScalarSubquery:
			// Subqueries may reference any source of this scope; run them as
			// late filters.
			level = len(ex.scope.srcs) - 1
			return false
		}
		return true
	})
	return level, walkErr
}

func (ex *exec) placeConjunct(c sqlparser.Expr) error {
	lvl, err := ex.maxLevel(c)
	if err != nil {
		return err
	}
	if lvl < 0 {
		ex.prefilters = append(ex.prefilters, c)
		return nil
	}
	// Equality probe: src[lvl].col = expr(<lvl or outer), either direction,
	// plain or NULL-safe.
	if !ex.eng.DisableIndexProbes {
		var l, r sqlparser.Expr
		nullSafe := false
		if b, ok := c.(*sqlparser.Binary); ok && b.Op == sqlparser.OpEq {
			l, r = b.L, b.R
		} else if a, b, ok := sqlparser.NullSafeEquality(c); ok {
			l, r, nullSafe = a, b, true
		}
		if l != nil {
			for _, cand := range [2][2]sqlparser.Expr{{l, r}, {r, l}} {
				p, ok, err := ex.tryProbe(lvl, cand[0], cand[1])
				if err != nil {
					return err
				}
				if ok {
					p.nullSafe = nullSafe
					ex.probes[lvl] = append(ex.probes[lvl], p)
					return nil
				}
			}
		}
	}
	ex.filters[lvl] = append(ex.filters[lvl], c)
	return nil
}

// tryProbe checks whether colSide is a bare column of source lvl and
// exprSide is bound before lvl.
func (ex *exec) tryProbe(lvl int, colSide, exprSide sqlparser.Expr) (probe, bool, error) {
	cr, ok := colSide.(*sqlparser.ColumnRef)
	if !ok {
		return probe{}, false, nil
	}
	sc, si, ci, err := ex.scope.lookup(cr.Qualifier, cr.Name)
	if err != nil || sc != ex.scope || si != lvl {
		return probe{}, false, nil
	}
	otherLvl, err := ex.maxLevel(exprSide)
	if err != nil {
		return probe{}, false, err
	}
	if otherLvl >= lvl {
		return probe{}, false, nil
	}
	return probe{colIdx: ci, expr: exprSide}, true, nil
}

func (ex *exec) outputColumns() []string {
	if ex.sel.Star {
		var out []string
		for _, src := range ex.scope.srcs {
			for _, c := range src.cols {
				out = append(out, src.alias+"."+c)
			}
		}
		return out
	}
	out := make([]string, len(ex.sel.Columns))
	for i, it := range ex.sel.Columns {
		switch {
		case it.Alias != "":
			out[i] = it.Alias
		default:
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				out[i] = cr.Name
			} else {
				out[i] = fmt.Sprintf("col%d", i+1)
			}
		}
	}
	return out
}

// run drives the index-nested-loop join, calling emit for every result row.
// emit returning false stops the evaluation early.
func (ex *exec) run(emit func(sqltypes.Row) (bool, error)) error {
	for _, f := range ex.prefilters {
		t, err := ex.evalBool(f)
		if err != nil {
			return err
		}
		if t != truthTrue {
			return nil
		}
	}
	saved := ex.emit
	ex.emit = emit
	_, err := ex.loop(0)
	ex.emit = saved
	return err
}

// tryRow binds r at this level, applies the level's filters, and recurses.
// It is the index-probe scan callback; false stops the storage scan (early
// exit or error, disambiguated by lv.err).
func (lv *level) tryRow(r sqltypes.Row) bool {
	ex := lv.ex
	ex.scope.tuple[lv.k] = r
	for _, f := range ex.filters[lv.k] {
		t, err := ex.evalBool(f)
		if err != nil {
			lv.err = err
			return false
		}
		if t != truthTrue {
			return true
		}
	}
	c, err := ex.loop(lv.k + 1)
	if err != nil {
		lv.err = err
		return false
	}
	lv.cont = c
	return c
}

// visit is the scan-path callback for a source with probes but no index
// (view output): the row is matched against the probe values loop evaluated,
// then handed to tryRow.
func (lv *level) visit(r sqltypes.Row) bool {
	ex := lv.ex
	vals := ex.probeVals[lv.k]
	for i, p := range ex.probes[lv.k] {
		match := sqltypes.Equal
		if p.nullSafe {
			match = sqltypes.Identical
		}
		if !match(r[p.colIdx], vals[i]) {
			return true
		}
	}
	return lv.tryRow(r)
}

func (ex *exec) loop(k int) (bool, error) {
	if k == len(ex.scope.srcs) {
		if ex.skipProject {
			return ex.emit(nil)
		}
		row, err := ex.project()
		if err != nil {
			return false, err
		}
		return ex.emit(row)
	}
	src := ex.scope.srcs[k]
	lv := &ex.levels[k]
	lv.cont = true
	lv.err = nil

	// The probe values depend only on sources bound before k: evaluate them
	// once here, for the index lookup and the scan path alike.
	vals := ex.probeVals[k]
	for i, p := range ex.probes[k] {
		v, err := ex.evalValue(p.expr)
		if err != nil {
			return false, err
		}
		vals[i] = v
	}

	switch {
	case src.table != nil && len(vals) > 0:
		idx := ex.probeIdx[k]
		if idx == nil {
			var err error
			idx, err = src.table.IndexOn(ex.probeOffs[k])
			if err != nil {
				return false, err
			}
			ex.probeIdx[k] = idx
		}
		idx.ScanEqualScratch(&ex.keyScratch, vals, ex.probeNullSafe[k], lv.tryFn)
	case src.table != nil:
		if k == 0 && ex.hasRange {
			src.table.ScanRange(ex.scanRange, lv.visitFn)
		} else {
			src.table.Scan(lv.visitFn)
		}
	default:
		// This execution's view output, produced on first use.
		if !src.fresh {
			if err := src.view.QueryInto(&src.out); err != nil {
				return false, err
			}
			src.fresh = true
		}
		for _, r := range src.out.Rows {
			if !lv.visitFn(r) {
				break
			}
		}
	}
	ex.scope.tuple[k] = nil
	if lv.err != nil {
		return false, lv.err
	}
	return lv.cont, nil
}

func (ex *exec) project() (sqltypes.Row, error) {
	if ex.sel.Star {
		var row sqltypes.Row
		for i := range ex.scope.srcs {
			row = append(row, ex.scope.tuple[i]...)
		}
		return row, nil
	}
	row := make(sqltypes.Row, len(ex.sel.Columns))
	for i, it := range ex.sel.Columns {
		v, err := ex.evalValue(it.Expr)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

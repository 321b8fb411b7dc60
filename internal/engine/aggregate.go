package engine

import (
	"fmt"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// hasAggregates reports whether a select block's projection uses aggregate
// functions (which switches it to single-row aggregate evaluation).
func hasAggregates(sel *sqlparser.Select) bool {
	if sel.Star {
		return false
	}
	for _, it := range sel.Columns {
		found := false
		sqlparser.WalkExpr(it.Expr, func(e sqlparser.Expr) bool {
			switch x := e.(type) {
			case *sqlparser.FuncCall:
				if x.IsAggregate() {
					found = true
				}
				return false
			case *sqlparser.Exists, *sqlparser.InSubquery, *sqlparser.ScalarSubquery:
				return false // aggregates inside subqueries belong to them
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// aggState accumulates one aggregate function over the join result; fn is
// nil for a projection item that is not an aggregate call.
type aggState struct {
	fn    *sqlparser.FuncCall
	count int64
	sum   float64
	isInt bool // all summed inputs were integers
	first bool
	mm    sqltypes.Value // running MIN/MAX
}

// newAggStates returns one state per projection item of an aggregate block.
func newAggStates(sel *sqlparser.Select) []aggState {
	states := make([]aggState, len(sel.Columns))
	for i, it := range sel.Columns {
		if fc, ok := it.Expr.(*sqlparser.FuncCall); ok && fc.IsAggregate() {
			states[i].fn = fc
		}
	}
	return states
}

// runAggregate evaluates the block in aggregate mode into ex.aggs: every
// projection item must be a single aggregate call (no GROUP BY support;
// the paper's fragment has none either). The states and the sink are the
// exec's own, reset here, so a correlated aggregate subquery evaluates per
// outer row without allocating. No defer, as in runExists: reset() repairs
// a skipProject that a panic left set.
func (ex *exec) runAggregate() error {
	for i := range ex.aggs {
		st := &ex.aggs[i]
		if st.fn == nil {
			return fmt.Errorf("engine: aggregate queries must project aggregate functions only (item %d)", i+1)
		}
		*st = aggState{fn: st.fn, isInt: true, first: true}
	}
	ex.skipProject = true
	err := ex.run(ex.aggEmit)
	ex.skipProject = false
	return err
}

func (ex *exec) emitAggregate(sqltypes.Row) (bool, error) {
	for i := range ex.aggs {
		if err := ex.aggs[i].accumulate(ex); err != nil {
			return false, err
		}
	}
	return true, nil
}

// aggregateRow returns a fresh row of the results runAggregate left.
func (ex *exec) aggregateRow() sqltypes.Row {
	row := make(sqltypes.Row, len(ex.aggs))
	for i := range ex.aggs {
		row[i] = ex.aggs[i].result()
	}
	return row
}

func (st *aggState) accumulate(ex *exec) error {
	if st.fn.Star { // COUNT(*)
		st.count++
		return nil
	}
	v, err := ex.evalValue(st.fn.Args[0])
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates ignore NULLs
	}
	switch st.fn.Name {
	case "COUNT":
		st.count++
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("engine: %s over non-numeric value %s", st.fn.Name, v)
		}
		if v.Kind() != sqltypes.KindInt {
			st.isInt = false
		}
		st.sum += v.Float()
		st.count++
	case "MIN", "MAX":
		if st.first {
			st.mm = v
			st.first = false
			return nil
		}
		cmp, ok := sqltypes.Compare(v, st.mm)
		if !ok {
			return fmt.Errorf("engine: %s over incomparable values %s and %s", st.fn.Name, v, st.mm)
		}
		if (st.fn.Name == "MIN" && cmp < 0) || (st.fn.Name == "MAX" && cmp > 0) {
			st.mm = v
		}
	}
	return nil
}

func (st *aggState) result() sqltypes.Value {
	switch st.fn.Name {
	case "COUNT":
		return sqltypes.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return sqltypes.Null
		}
		if st.isInt {
			return sqltypes.NewInt(int64(st.sum))
		}
		return sqltypes.NewFloat(st.sum)
	case "AVG":
		if st.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(st.sum / float64(st.count))
	case "MIN", "MAX":
		if st.first {
			return sqltypes.Null
		}
		return st.mm
	}
	return sqltypes.Null
}

// evalScalarSubquery evaluates (SELECT ...) in scalar position: exactly one
// column; zero rows yield NULL; more than one row is an error. Aggregate
// projections always produce exactly one row.
func (ex *exec) evalScalarSubquery(sq *sqlparser.ScalarSubquery) (sqltypes.Value, error) {
	q := sq.Query
	if q.Union != nil {
		return sqltypes.Null, fmt.Errorf("engine: UNION is not allowed in scalar subqueries")
	}
	sub, err := ex.subExec(q)
	if err != nil {
		return sqltypes.Null, err
	}
	if sub.aggs != nil {
		if err := sub.runAggregate(); err != nil {
			return sqltypes.Null, err
		}
		if len(sub.aggs) != 1 {
			return sqltypes.Null, fmt.Errorf("engine: scalar subquery must produce one column")
		}
		return sub.aggs[0].result(), nil
	}
	if q.Star || len(q.Columns) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: scalar subquery must produce one column")
	}
	// Reusable sink: scalar subqueries evaluate per outer row, so the probe
	// must not allocate a fresh closure each time.
	sub.scalarVal = sqltypes.Null
	sub.scalarN = 0
	err = sub.run(sub.scalarEmit)
	return sub.scalarVal, err
}

package engine

import (
	"fmt"
	"strings"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// ExecResult reports the outcome of one executed statement.
type ExecResult struct {
	RowsAffected int
	Result       *Result // non-nil for SELECT
	Message      string
}

// Procedure is a callable registered for CALL statements (e.g. safeCommit).
type Procedure func() (*ExecResult, error)

// RegisterProcedure makes name callable via CALL name.
func (e *Engine) RegisterProcedure(name string, p Procedure) {
	if e.procs == nil {
		e.procs = make(map[string]Procedure)
	}
	e.procs[strings.ToLower(name)] = p
}

// ExecSQL parses and executes a script of semicolon-separated statements.
func (e *Engine) ExecSQL(src string) ([]*ExecResult, error) {
	stmts, err := sqlparser.ParseScript(src)
	if err != nil {
		return nil, err
	}
	out := make([]*ExecResult, 0, len(stmts))
	for _, st := range stmts {
		r, err := e.ExecStatement(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecStatement executes one parsed statement. CREATE ASSERTION is not
// handled here — it belongs to the TINTIN core, which owns the rewriting
// pipeline; executing one through the bare engine is an error.
func (e *Engine) ExecStatement(st sqlparser.Statement) (*ExecResult, error) {
	switch x := st.(type) {
	case *sqlparser.CreateTable:
		if _, err := e.db.CreateTableFromAST(x); err != nil {
			return nil, err
		}
		return &ExecResult{Message: "table " + x.Name + " created"}, nil

	case *sqlparser.CreateView:
		if err := e.db.CreateView(x.Name, x.Select); err != nil {
			return nil, err
		}
		return &ExecResult{Message: "view " + x.Name + " created"}, nil

	case *sqlparser.DropTable:
		if err := e.db.DropTable(x.Name); err != nil {
			return nil, err
		}
		return &ExecResult{Message: "table " + x.Name + " dropped"}, nil

	case *sqlparser.DropView:
		if err := e.db.DropView(x.Name); err != nil {
			return nil, err
		}
		return &ExecResult{Message: "view " + x.Name + " dropped"}, nil

	case *sqlparser.Insert:
		n, err := e.execInsert(x)
		if err != nil {
			return nil, err
		}
		return &ExecResult{RowsAffected: n}, nil

	case *sqlparser.Delete:
		n, err := e.execDelete(x)
		if err != nil {
			return nil, err
		}
		return &ExecResult{RowsAffected: n}, nil

	case *sqlparser.SelectStmt:
		res, err := e.Query(x.Select)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Result: res, RowsAffected: len(res.Rows)}, nil

	case *sqlparser.Call:
		p := e.procs[strings.ToLower(x.Name)]
		if p == nil {
			return nil, fmt.Errorf("engine: no procedure named %s", x.Name)
		}
		return p()

	case *sqlparser.CreateAssertion:
		return nil, fmt.Errorf("engine: CREATE ASSERTION must go through the TINTIN tool (core.Tool.AddAssertion)")
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// closedExec returns an exec over no sources with expr's subqueries planned:
// the evaluator of an expression with no free column references.
func (e *Engine) closedExec(expr sqlparser.Expr) (*exec, error) {
	ex := &exec{eng: e, scope: &scope{}}
	return ex, ex.planSubqueries(expr, nil)
}

// EvalConst evaluates an expression with no free column references (literal
// rows).
func (e *Engine) EvalConst(expr sqlparser.Expr) (sqltypes.Value, error) {
	ex, err := e.closedExec(expr)
	if err != nil {
		return sqltypes.Null, err
	}
	return ex.evalValue(expr)
}

// EvalPredicate evaluates a closed boolean condition — no free column
// references, subqueries allowed — under SQL three-valued logic. known is
// false when the condition evaluates to UNKNOWN (holds is then false).
func (e *Engine) EvalPredicate(expr sqlparser.Expr) (holds, known bool, err error) {
	ex, err := e.closedExec(expr)
	if err != nil {
		return false, false, err
	}
	t, err := ex.evalBool(expr)
	if err != nil {
		return false, false, err
	}
	return t == truthTrue, t != truthUnknown, nil
}

// execInsert builds every row of the statement, then stores them all or
// nothing. A literal tuple is its row already: it goes to storage as it is
// unless a column list reorders it.
func (e *Engine) execInsert(ins *sqlparser.Insert) (int, error) {
	t := e.db.Table(ins.Table)
	if t == nil {
		return 0, fmt.Errorf("engine: no table %s", ins.Table)
	}
	schema := t.Schema()
	colOffsets := make([]int, 0, len(schema.Columns))
	if len(ins.Columns) == 0 {
		for i := range schema.Columns {
			colOffsets = append(colOffsets, i)
		}
	} else {
		for _, c := range ins.Columns {
			off := schema.ColumnIndex(c)
			if off < 0 {
				return 0, fmt.Errorf("engine: table %s has no column %s", ins.Table, c)
			}
			colOffsets = append(colOffsets, off)
		}
	}
	inOrder := len(colOffsets) == len(schema.Columns)
	for i, off := range colOffsets {
		inOrder = inOrder && off == i
	}
	rows := make([]sqltypes.Row, len(ins.Rows))
	for i, tup := range ins.Rows {
		if tup.Len() != len(colOffsets) {
			return 0, fmt.Errorf("engine: INSERT into %s expects %d values, got %d",
				ins.Table, len(colOffsets), tup.Len())
		}
		if tup.Exprs == nil && inOrder {
			rows[i] = tup.Values
			continue
		}
		row := make(sqltypes.Row, len(schema.Columns))
		for j, off := range colOffsets {
			if tup.Exprs == nil {
				row[off] = tup.Values[j]
				continue
			}
			v, err := e.EvalConst(tup.Exprs[j])
			if err != nil {
				return 0, err
			}
			row[off] = v
		}
		rows[i] = row
	}
	return e.db.InsertRows(ins.Table, rows)
}

// execDelete plans DELETE FROM t [AS a] WHERE c as SELECT * FROM t [AS a]
// WHERE c, so its conjuncts get the probes, key-set ranges and prefilters any
// query gets. Every matching row is collected before any is deleted: the
// WHERE clause, subqueries included, reads the state before the statement,
// and an evaluation error deletes nothing.
func (e *Engine) execDelete(del *sqlparser.Delete) (int, error) {
	if e.db.Table(del.Table) == nil {
		return 0, fmt.Errorf("engine: no table %s", del.Table)
	}
	sel := &sqlparser.Select{
		Star:  true,
		From:  []sqlparser.TableRef{{Table: del.Table, Alias: del.Alias}},
		Where: del.Where,
	}
	ex, err := e.newExec(sel, nil, nil)
	if err != nil {
		return 0, err
	}
	var matched []sqltypes.Row
	ex.skipProject = true // the sink reads the bound row: nothing is copied
	if err := ex.run(func(sqltypes.Row) (bool, error) {
		matched = append(matched, ex.scope.tuple[0])
		return true, nil
	}); err != nil {
		return 0, err
	}
	return e.db.DeleteRows(del.Table, matched)
}

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
	return ex, ex.planSubqueries(expr)
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
	n := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(colOffsets) {
			return n, fmt.Errorf("engine: INSERT into %s expects %d values, got %d",
				ins.Table, len(colOffsets), len(exprRow))
		}
		row := make(sqltypes.Row, len(schema.Columns))
		for i, expr := range exprRow {
			v, err := e.EvalConst(expr)
			if err != nil {
				return n, err
			}
			row[colOffsets[i]] = v
		}
		if err := e.db.Insert(ins.Table, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (e *Engine) execDelete(del *sqlparser.Delete) (int, error) {
	t := e.db.Table(del.Table)
	if t == nil {
		return 0, fmt.Errorf("engine: no table %s", del.Table)
	}
	if del.Where == nil {
		return e.db.DeleteWhere(del.Table, func(sqltypes.Row) bool { return true })
	}
	alias := del.Alias
	if alias == "" {
		alias = del.Table
	}
	src, err := e.resolveSource(sqlparser.TableRef{Table: del.Table, Alias: alias})
	if err != nil {
		return 0, err
	}
	sc := &scope{srcs: []*source{src}, tuple: make([]sqltypes.Row, 1)}
	ex := &exec{eng: e, scope: sc}
	if err := ex.planSubqueries(del.Where); err != nil {
		return 0, err
	}
	var evalErr error
	n, err := e.db.DeleteWhere(del.Table, func(r sqltypes.Row) bool {
		if evalErr != nil {
			return false
		}
		sc.tuple[0] = r
		tr, err := ex.evalBool(del.Where)
		if err != nil {
			evalErr = err
			return false
		}
		return tr == truthTrue
	})
	if evalErr != nil {
		return n, evalErr
	}
	return n, err
}

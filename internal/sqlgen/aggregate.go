package sqlgen

import (
	"fmt"

	"tintin/internal/logic"
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// aggExprs renders an aggregate condition as SQL conjuncts. Old-state
// conditions are a direct scalar-subquery comparison; new-state conditions
// decompose the aggregate over the update:
//
//	COUNT_n = COUNT(T) + COUNT(ins_T) − COUNT(del_T)
//	SUM_n   = Σ(T) + Σ(ins_T) − Σ(del_T)    (guarded by COUNT_n > 0 so an
//	                                         emptied group keeps SQL's
//	                                         NULL-sum semantics)
func (g *Generator) aggExprs(a logic.AggCond, bind bindings) ([]sqlparser.Expr, error) {
	cols, ok := g.cat.TableColumns(a.Table)
	if !ok {
		return nil, fmt.Errorf("sqlgen: unknown table %s in aggregate condition", a.Table)
	}
	bound, err := termExpr(a.Bound, bind)
	if err != nil {
		return nil, err
	}

	// sub builds (SELECT fn FROM tbl WHERE filters [AND extra]).
	sub := func(tbl string, fn *sqlparser.FuncCall, extraNotNullCol int) (*sqlparser.ScalarSubquery, error) {
		alias := g.freshAlias()
		sel := &sqlparser.Select{
			Columns: []sqlparser.SelectItem{{Expr: fn}},
			From:    []sqlparser.TableRef{{Table: tbl, Alias: alias}},
		}
		var conj []sqlparser.Expr
		for _, f := range a.Filters {
			var t sqlparser.Expr
			if !f.Op.Unary() {
				var err error
				if t, err = termExpr(f.T, bind); err != nil {
					return nil, err
				}
			}
			conj = append(conj, cmpExpr(f.Op, &sqlparser.ColumnRef{Qualifier: alias, Name: cols[f.Col]}, t))
		}
		if extraNotNullCol >= 0 {
			conj = append(conj, &sqlparser.IsNull{Negated: true,
				E: &sqlparser.ColumnRef{Qualifier: alias, Name: cols[extraNotNullCol]}})
		}
		sel.Where = sqlparser.AndAll(conj)
		return &sqlparser.ScalarSubquery{Query: sel}, nil
	}

	countFn := func() *sqlparser.FuncCall { return &sqlparser.FuncCall{Name: "COUNT", Star: true} }
	// subSum builds the SUM subquery, qualifying the summed column with the
	// generated alias.
	subSum := func(tbl string) (*sqlparser.ScalarSubquery, error) {
		fn := &sqlparser.FuncCall{Name: "SUM", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Name: cols[a.Col]}}}
		sq, err := sub(tbl, fn, -1)
		if err != nil {
			return nil, err
		}
		fn.Args[0] = &sqlparser.ColumnRef{Qualifier: sq.Query.From[0].Alias, Name: cols[a.Col]}
		return sq, nil
	}

	if !a.NewState {
		var sq *sqlparser.ScalarSubquery
		if a.Fn == logic.AggCount {
			sq, err = sub(a.Table, countFn(), -1)
		} else {
			sq, err = subSum(a.Table)
		}
		if err != nil {
			return nil, err
		}
		return []sqlparser.Expr{cmpExpr(a.Op, sq, bound)}, nil
	}

	// New-state decomposition over base, ins_ and del_ tables.
	tables := []string{a.Table, storage.InsTable(a.Table), storage.DelTable(a.Table)}

	mkTriple := func(build func(tbl string) (*sqlparser.ScalarSubquery, error)) (sqlparser.Expr, error) {
		base, err := build(tables[0])
		if err != nil {
			return nil, err
		}
		ins, err := build(tables[1])
		if err != nil {
			return nil, err
		}
		del, err := build(tables[2])
		if err != nil {
			return nil, err
		}
		return &sqlparser.Binary{Op: sqlparser.OpSub,
			L: &sqlparser.Binary{Op: sqlparser.OpAdd, L: base, R: ins},
			R: del,
		}, nil
	}

	// COUNT_n: for SUM the guard count only considers non-null summands,
	// matching SQL's "SUM over no (non-null) values is NULL".
	guardCol := -1
	if a.Fn == logic.AggSum {
		guardCol = a.Col
	}
	countN, err := mkTriple(func(tbl string) (*sqlparser.ScalarSubquery, error) {
		return sub(tbl, countFn(), guardCol)
	})
	if err != nil {
		return nil, err
	}

	if a.Fn == logic.AggCount {
		return []sqlparser.Expr{cmpExpr(a.Op, countN, bound)}, nil
	}

	sumN, err := mkTriple(subSum)
	if err != nil {
		return nil, err
	}
	// Wrap each side in COALESCE(·, 0): an empty side contributes zero.
	sumN = coalesceTree(sumN)
	return []sqlparser.Expr{
		&sqlparser.Binary{Op: sqlparser.OpGt, L: countN, R: &sqlparser.Literal{Value: sqltypes.NewInt(0)}},
		cmpExpr(a.Op, sumN, bound),
	}, nil
}

// coalesceTree rewrites the scalar-subquery leaves of an arithmetic tree
// into COALESCE(leaf, 0).
func coalesceTree(e sqlparser.Expr) sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.Binary:
		return &sqlparser.Binary{Op: x.Op, L: coalesceTree(x.L), R: coalesceTree(x.R)}
	case *sqlparser.ScalarSubquery:
		return &sqlparser.FuncCall{Name: "COALESCE", Args: []sqlparser.Expr{
			x, &sqlparser.Literal{Value: sqltypes.NewInt(0)},
		}}
	}
	return e
}

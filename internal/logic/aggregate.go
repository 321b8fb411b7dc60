package logic

import (
	"fmt"
	"strings"

	"tintin/internal/sqlparser"
)

// AggFunc enumerates the aggregates supported in assertions. Only COUNT and
// SUM are incrementally decomposable (new = old + inserted − deleted);
// MIN/MAX/AVG are rejected at translation time, like the original TINTIN
// rejected all aggregates ("for the moment").
type AggFunc uint8

// Supported aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(*) or COUNT(col)
	AggSum                  // SUM(col)
)

// String returns the SQL name.
func (f AggFunc) String() string {
	if f == AggSum {
		return "SUM"
	}
	return "COUNT"
}

// AggFilter is one condition on the aggregated table's columns:
// column Col ⟨Op⟩ T, or a unary null test when Op is CmpIsNull/CmpIsNotNull.
type AggFilter struct {
	Col int
	Op  CmpOp
	T   Term
}

// AggCond is an aggregate comparison from an assertion:
//
//	(SELECT Fn(col) FROM Table WHERE filters) Op Bound
//
// Filters reference outer variables or constants; Bound is an outer
// variable or a constant. NewState marks the condition as evaluated over
// the updated database (set by the EDC generator).
type AggCond struct {
	NewState bool
	Fn       AggFunc
	Table    string
	Col      int // aggregated column; -1 for COUNT(*)
	Filters  []AggFilter
	Op       CmpOp
	Bound    Term
}

// String renders the condition.
func (a AggCond) String() string {
	var b strings.Builder
	if a.NewState {
		b.WriteString("new ")
	}
	b.WriteString(strings.ToLower(a.Fn.String()))
	fmt.Fprintf(&b, "[%s", a.Table)
	for _, f := range a.Filters {
		if f.Op.Unary() {
			fmt.Fprintf(&b, "; #%d %s", f.Col, f.Op)
		} else {
			fmt.Fprintf(&b, "; #%d %s %s", f.Col, f.Op, f.T)
		}
	}
	if a.Col >= 0 {
		fmt.Fprintf(&b, "; of #%d", a.Col)
	}
	b.WriteString("]")
	fmt.Fprintf(&b, " %s %s", a.Op, a.Bound)
	return b.String()
}

// Clone deep-copies the condition.
func (a AggCond) Clone() AggCond {
	out := a
	out.Filters = append([]AggFilter(nil), a.Filters...)
	return out
}

// substitute replaces variable name with t in the condition's terms.
func (a *AggCond) substitute(name string, t Term) {
	for i := range a.Filters {
		if !a.Filters[i].T.IsConst && a.Filters[i].T.Name == name {
			a.Filters[i].T = t
		}
	}
	if !a.Bound.IsConst && a.Bound.Name == name {
		a.Bound = t
	}
}

// vars appends the condition's variables to set.
func (a AggCond) vars(set map[string]bool) {
	for _, f := range a.Filters {
		if !f.T.IsConst && f.T.Name != "" {
			set[f.T.Name] = true
		}
	}
	if !a.Bound.IsConst && a.Bound.Name != "" {
		set[a.Bound.Name] = true
	}
}

// translateAggCond turns a comparison with a scalar aggregate subquery into
// an AggCond. agg is the subquery side; other is the other operand; flipped
// indicates the subquery was on the right (the operator is then mirrored).
func (t *translator) translateAggCond(sc *scope, agg *sqlparser.ScalarSubquery,
	other sqlparser.Expr, op sqlparser.BinaryOp, flipped bool) (AggCond, error) {
	q := agg.Query
	if q.Union != nil {
		return AggCond{}, fmt.Errorf("logic: UNION is not allowed in aggregate subqueries of assertions")
	}
	if q.Star || len(q.Columns) != 1 {
		return AggCond{}, fmt.Errorf("logic: aggregate subquery must project exactly one aggregate")
	}
	fc, ok := q.Columns[0].Expr.(*sqlparser.FuncCall)
	if !ok || !fc.IsAggregate() {
		return AggCond{}, fmt.Errorf("logic: scalar subqueries in assertions must be aggregates")
	}
	if len(q.From) != 1 {
		return AggCond{}, fmt.Errorf("logic: aggregate subqueries in assertions must range over a single table")
	}
	table := strings.ToLower(q.From[0].Table)
	cols, okT := t.cat.TableColumns(table)
	if !okT {
		return AggCond{}, fmt.Errorf("logic: unknown table %s in aggregate subquery", table)
	}
	colIdx := func(e sqlparser.Expr) (int, bool) {
		cr, isCol := e.(*sqlparser.ColumnRef)
		if !isCol {
			return 0, false
		}
		alias := strings.ToLower(q.From[0].EffectiveAlias())
		if cr.Qualifier != "" && strings.ToLower(cr.Qualifier) != alias {
			return 0, false
		}
		for i, c := range cols {
			if c == strings.ToLower(cr.Name) {
				return i, true
			}
		}
		return 0, false
	}

	cond := AggCond{Table: table, Col: -1}
	switch fc.Name {
	case "COUNT":
		cond.Fn = AggCount
		if !fc.Star {
			ci, isInner := colIdx(fc.Args[0])
			if !isInner {
				return AggCond{}, fmt.Errorf("logic: COUNT argument must be a column of %s", table)
			}
			// COUNT(col) counts non-null values: an implicit filter.
			cond.Filters = append(cond.Filters, AggFilter{Col: ci, Op: CmpIsNotNull})
		}
	case "SUM":
		cond.Fn = AggSum
		ci, isInner := colIdx(fc.Args[0])
		if !isInner {
			return AggCond{}, fmt.Errorf("logic: SUM argument must be a column of %s", table)
		}
		cond.Col = ci
	default:
		return AggCond{}, fmt.Errorf("logic: aggregate %s is not supported incrementally (COUNT and SUM only)", fc.Name)
	}

	for _, c := range sqlparser.Conjuncts(q.Where) {
		switch x := c.(type) {
		case *sqlparser.Binary:
			if !x.Op.IsComparison() {
				return AggCond{}, fmt.Errorf("logic: unsupported condition %s inside aggregate subquery", x.Op)
			}
			li, lInner := colIdx(x.L)
			ri, rInner := colIdx(x.R)
			switch {
			case lInner && !rInner:
				term, err := t.resolveTerm(sc, x.R)
				if err != nil {
					return AggCond{}, err
				}
				cond.Filters = append(cond.Filters, AggFilter{Col: li, Op: cmpOpOf(x.Op), T: term})
			case rInner && !lInner:
				term, err := t.resolveTerm(sc, x.L)
				if err != nil {
					return AggCond{}, err
				}
				cond.Filters = append(cond.Filters, AggFilter{Col: ri, Op: cmpOpOf(x.Op).mirror(), T: term})
			default:
				return AggCond{}, fmt.Errorf("logic: aggregate subquery conditions must compare a column of %s with an outer value", table)
			}
		case *sqlparser.IsNull:
			ci, isInner := colIdx(x.E)
			if !isInner {
				return AggCond{}, fmt.Errorf("logic: IS NULL inside aggregate subquery must test a column of %s", table)
			}
			op := CmpIsNull
			if x.Negated {
				op = CmpIsNotNull
			}
			cond.Filters = append(cond.Filters, AggFilter{Col: ci, Op: op})
		default:
			return AggCond{}, fmt.Errorf("logic: unsupported condition %T inside aggregate subquery", c)
		}
	}

	bound, err := t.resolveTerm(sc, other)
	if err != nil {
		return AggCond{}, err
	}
	cond.Bound = bound
	cond.Op = cmpOpOf(op)
	if flipped {
		cond.Op = cond.Op.mirror()
	}
	return cond, nil
}

// mirror swaps the operand order of a comparison (a < b ⇔ b > a).
func (op CmpOp) mirror() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op // =, <> and null tests are symmetric
}

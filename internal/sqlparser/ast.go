package sqlparser

import "tintin/internal/sqltypes"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar or boolean expression node.
type Expr interface{ expr() }

// --- Statements ---

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	ForeignKeys []ForeignKeyDef
}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Kind
	NotNull    bool
	PrimaryKey bool // column-level PRIMARY KEY shorthand
}

// ForeignKeyDef declares FOREIGN KEY (cols) REFERENCES table (refcols).
type ForeignKeyDef struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// CreateView is a CREATE VIEW statement.
type CreateView struct {
	Name   string
	Select *Select
}

// CreateAssertion is a CREATE ASSERTION name CHECK (expr) statement.
type CreateAssertion struct {
	Name  string
	Check Expr
}

// Insert is an INSERT INTO statement with literal VALUES rows.
type Insert struct {
	Table   string
	Columns []string // empty means full-row positional
	Rows    [][]Expr
}

// Delete is a DELETE FROM statement.
type Delete struct {
	Table string
	Alias string
	Where Expr // nil means all rows
}

// DropTable is a DROP TABLE statement.
type DropTable struct{ Name string }

// DropView is a DROP VIEW statement.
type DropView struct{ Name string }

// Call invokes a stored procedure by name (e.g. CALL safeCommit).
type Call struct{ Name string }

// SelectStmt wraps a top-level SELECT used as a statement.
type SelectStmt struct{ Select *Select }

func (*CreateTable) stmt()     {}
func (*CreateView) stmt()      {}
func (*CreateAssertion) stmt() {}
func (*Insert) stmt()          {}
func (*Delete) stmt()          {}
func (*DropTable) stmt()       {}
func (*DropView) stmt()        {}
func (*Call) stmt()            {}
func (*SelectStmt) stmt()      {}

// --- Queries ---

// Select is a SELECT ... FROM ... WHERE ... [UNION [ALL] Select] block.
type Select struct {
	Distinct bool
	Star     bool
	Columns  []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	Union    *Select
	UnionAll bool
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a table or view in FROM, with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// EffectiveAlias returns the alias if present, else the table name.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// --- Expressions ---

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Qualifier string // alias or table name; empty if unqualified
	Name      string
}

// Literal is a constant value.
type Literal struct{ Value sqltypes.Value }

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpAnd BinaryOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// IsComparison reports whether op is a comparison operator.
func (op BinaryOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Negate returns the complementary comparison (=/<>, </>=, ...) and true,
// or the operator unchanged and false when it is not a comparison (callers
// must check ok instead of relying on a panic).
func (op BinaryOp) Negate() (neg BinaryOp, ok bool) {
	switch op {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	}
	return op, false
}

// Binary is a binary expression.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Not is logical negation.
type Not struct{ E Expr }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Exists is [NOT] EXISTS (subquery).
type Exists struct {
	Negated bool
	Query   *Select
}

// InSubquery is expr [NOT] IN (subquery).
type InSubquery struct {
	Negated bool
	E       Expr
	Query   *Select
}

// InList is expr [NOT] IN (v1, v2, ...).
type InList struct {
	Negated bool
	E       Expr
	Items   []Expr
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	Negated bool
	E       Expr
}

// FuncCall is a function application. The engine supports the aggregate
// functions COUNT/SUM/MIN/MAX/AVG (in aggregate projections) and the scalar
// COALESCE; anything else is rejected at parse time.
type FuncCall struct {
	Name string // upper-cased
	Star bool   // COUNT(*)
	Args []Expr
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// ScalarSubquery is a parenthesized SELECT used as a scalar value
// (e.g. (SELECT COUNT(*) FROM t WHERE ...) > 10).
type ScalarSubquery struct {
	Query *Select
}

func (*ColumnRef) expr()      {}
func (*Literal) expr()        {}
func (*Binary) expr()         {}
func (*Not) expr()            {}
func (*Neg) expr()            {}
func (*Exists) expr()         {}
func (*InSubquery) expr()     {}
func (*InList) expr()         {}
func (*IsNull) expr()         {}
func (*FuncCall) expr()       {}
func (*ScalarSubquery) expr() {}

// WalkExpr calls fn for e and every descendant expression (including
// expressions inside subqueries). fn returning false prunes the subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Not:
		WalkExpr(x.E, fn)
	case *Neg:
		WalkExpr(x.E, fn)
	case *Exists:
		WalkSelect(x.Query, fn)
	case *InSubquery:
		WalkExpr(x.E, fn)
		WalkSelect(x.Query, fn)
	case *InList:
		WalkExpr(x.E, fn)
		for _, it := range x.Items {
			WalkExpr(it, fn)
		}
	case *IsNull:
		WalkExpr(x.E, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *ScalarSubquery:
		WalkSelect(x.Query, fn)
	}
}

// WalkSelect applies fn to every expression in the select (projections,
// WHERE, and UNION branches), recursing into subqueries.
func WalkSelect(s *Select, fn func(Expr) bool) {
	for s != nil {
		for _, it := range s.Columns {
			WalkExpr(it.Expr, fn)
		}
		WalkExpr(s.Where, fn)
		s = s.Union
	}
}

// TablesReferenced returns the distinct table/view names mentioned in FROM
// clauses of s, including subqueries and UNION branches, in first-seen order.
func TablesReferenced(s *Select) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(q *Select)
	visit = func(q *Select) {
		for q != nil {
			for _, tr := range q.From {
				if !seen[tr.Table] {
					seen[tr.Table] = true
					out = append(out, tr.Table)
				}
			}
			sub := func(e Expr) bool {
				switch x := e.(type) {
				case *Exists:
					visit(x.Query)
					return false
				case *InSubquery:
					visit(x.Query)
					return false
				case *ScalarSubquery:
					visit(x.Query)
					return false
				}
				return true
			}
			for _, it := range q.Columns {
				WalkExpr(it.Expr, sub)
			}
			WalkExpr(q.Where, sub)
			q = q.Union
		}
	}
	visit(s)
	return out
}

// Conjuncts flattens nested ANDs into a list of conjunct expressions.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// NullSafeEquality recognises the NULL-safe equality of a and b — row
// identity, where NULL matches NULL — in the one spelling SQL without IS NOT
// DISTINCT FROM has for it: a = b OR (a IS NULL AND b IS NULL). The operands
// may come in either order in both halves, and so may the halves. Operands
// are matched by their printed form, so a view re-parsed from stored text is
// recognised exactly like the tree the generator built.
func NullSafeEquality(e Expr) (a, b Expr, ok bool) {
	or, isOr := e.(*Binary)
	if !isOr || or.Op != OpOr {
		return nil, nil, false
	}
	for _, halves := range [2][2]Expr{{or.L, or.R}, {or.R, or.L}} {
		eq, isEq := halves[0].(*Binary)
		and, isAnd := halves[1].(*Binary)
		if !isEq || eq.Op != OpEq || !isAnd || and.Op != OpAnd {
			continue
		}
		n1, ok1 := and.L.(*IsNull)
		n2, ok2 := and.R.(*IsNull)
		if !ok1 || !ok2 || n1.Negated || n2.Negated {
			continue
		}
		l, r := FormatExpr(eq.L), FormatExpr(eq.R)
		x, y := FormatExpr(n1.E), FormatExpr(n2.E)
		if l == x && r == y || l == y && r == x {
			return eq.L, eq.R, true
		}
	}
	return nil, nil, false
}

// AndAll combines the expressions with AND; nil for an empty list.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

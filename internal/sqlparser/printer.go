package sqlparser

import (
	"fmt"
	"strings"
)

// formatIdent renders an identifier so that it re-lexes to the same name:
// bare when it is a plain lower-case ASCII identifier that does not collide
// with a keyword, double-quoted (with internal quotes doubled) otherwise.
func formatIdent(name string) string {
	_, reserved := keyword(name)
	bare := name != "" && !reserved
	for i := 0; bare && i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			bare = false
		}
	}
	if bare {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func joinIdents(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = formatIdent(n)
	}
	return strings.Join(out, ", ")
}

// FormatExpr renders an expression back to SQL text.
func FormatExpr(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

// FormatSelect renders a SELECT back to SQL text.
func FormatSelect(s *Select) string {
	var b strings.Builder
	writeSelect(&b, s)
	return b.String()
}

// FormatStatement renders any statement back to SQL text.
func FormatStatement(st Statement) string {
	var b strings.Builder
	switch x := st.(type) {
	case *CreateTable:
		b.WriteString("CREATE TABLE " + formatIdent(x.Name) + " (")
		for i, c := range x.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(formatIdent(c.Name) + " " + c.Type.String())
			if c.PrimaryKey {
				b.WriteString(" PRIMARY KEY")
			} else if c.NotNull {
				b.WriteString(" NOT NULL")
			}
		}
		if len(x.PrimaryKey) > 0 {
			b.WriteString(", PRIMARY KEY (" + joinIdents(x.PrimaryKey) + ")")
		}
		for _, fk := range x.ForeignKeys {
			fmt.Fprintf(&b, ", FOREIGN KEY (%s) REFERENCES %s (%s)",
				joinIdents(fk.Columns), formatIdent(fk.RefTable), joinIdents(fk.RefColumns))
		}
		b.WriteString(")")
	case *CreateView:
		b.WriteString("CREATE VIEW " + formatIdent(x.Name) + " AS ")
		writeSelect(&b, x.Select)
	case *CreateAssertion:
		b.WriteString("CREATE ASSERTION " + formatIdent(x.Name) + " CHECK (")
		writeExpr(&b, x.Check, 0)
		b.WriteString(")")
	case *Insert:
		b.WriteString("INSERT INTO " + formatIdent(x.Table))
		if len(x.Columns) > 0 {
			b.WriteString(" (" + joinIdents(x.Columns) + ")")
		}
		b.WriteString(" VALUES ")
		for i, tup := range x.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j := 0; j < tup.Len(); j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				if tup.Exprs != nil {
					writeExpr(&b, tup.Exprs[j], 0)
				} else {
					b.WriteString(tup.Values[j].String()) // as writeExpr prints a *Literal
				}
			}
			b.WriteString(")")
		}
	case *Delete:
		b.WriteString("DELETE FROM " + formatIdent(x.Table))
		if x.Alias != "" {
			b.WriteString(" AS " + formatIdent(x.Alias))
		}
		if x.Where != nil {
			b.WriteString(" WHERE ")
			writeExpr(&b, x.Where, 0)
		}
	case *DropTable:
		b.WriteString("DROP TABLE " + formatIdent(x.Name))
	case *DropView:
		b.WriteString("DROP VIEW " + formatIdent(x.Name))
	case *Call:
		b.WriteString("CALL " + formatIdent(x.Name))
	case *SelectStmt:
		writeSelect(&b, x.Select)
	default:
		fmt.Fprintf(&b, "/* unknown statement %T */", st)
	}
	return b.String()
}

func writeSelect(b *strings.Builder, s *Select) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, it.Expr, 0)
			if it.Alias != "" {
				b.WriteString(" AS " + formatIdent(it.Alias))
			}
		}
	}
	b.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(formatIdent(tr.Table))
		if tr.Alias != "" {
			b.WriteString(" AS " + formatIdent(tr.Alias))
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		writeExpr(b, s.Where, 0)
	}
	if s.Union != nil {
		if s.UnionAll {
			b.WriteString(" UNION ALL ")
		} else {
			b.WriteString(" UNION ")
		}
		writeSelect(b, s.Union)
	}
}

// precedence levels for parenthesisation: higher binds tighter.
func prec(e Expr) int {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpOr:
			return 1
		case OpAnd:
			return 2
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return 4
		case OpAdd, OpSub:
			return 5
		default:
			return 6
		}
	case *Not:
		return 3
	case *Neg:
		return 7
	}
	return 8
}

func writeExpr(b *strings.Builder, e Expr, parent int) {
	p := prec(e)
	if p < parent {
		b.WriteString("(")
		defer b.WriteString(")")
	}
	switch x := e.(type) {
	case *ColumnRef:
		if x.Qualifier != "" {
			b.WriteString(formatIdent(x.Qualifier) + "." + formatIdent(x.Name))
		} else {
			b.WriteString(formatIdent(x.Name))
		}
	case *Literal:
		b.WriteString(x.Value.String())
	case *Binary:
		writeExpr(b, x.L, p)
		b.WriteString(" " + x.Op.String() + " ")
		// Right operand needs one-higher precedence for left-assoc ops.
		writeExpr(b, x.R, p+1)
	case *Not:
		b.WriteString("NOT ")
		writeExpr(b, x.E, p)
	case *Neg:
		var operand strings.Builder
		writeExpr(&operand, x.E, p)
		b.WriteString("-")
		if strings.HasPrefix(operand.String(), "-") {
			b.WriteString(" ") // "--" would open a comment
		}
		b.WriteString(operand.String())
	case *Exists:
		if x.Negated {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		writeSelect(b, x.Query)
		b.WriteString(")")
	case *InSubquery:
		writeExpr(b, x.E, 5)
		if x.Negated {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		writeSelect(b, x.Query)
		b.WriteString(")")
	case *InList:
		writeExpr(b, x.E, 5)
		if x.Negated {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, it := range x.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, it, 0)
		}
		b.WriteString(")")
	case *IsNull:
		writeExpr(b, x.E, 5)
		if x.Negated {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *FuncCall:
		b.WriteString(x.Name + "(")
		if x.Star {
			b.WriteString("*")
		}
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a, 0)
		}
		b.WriteString(")")
	case *ScalarSubquery:
		b.WriteString("(")
		writeSelect(b, x.Query)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "/* unknown expr %T */", e)
	}
}

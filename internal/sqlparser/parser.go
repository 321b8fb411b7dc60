package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tintin/internal/sqltypes"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
}

// NewParser returns a parser for src, or a lexing error.
func NewParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Parse parses a single statement from src; trailing tokens are an error
// (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		st, err := p.ParseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptSymbol(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, found %s", p.peek())
		}
	}
}

// ParseSelect parses a single SELECT query.
func ParseSelect(src string) (*Select, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after query", p.peek())
	}
	return sel, nil
}

// ParseExpr parses a single boolean/scalar expression.
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

// --- token helpers ---

func (p *Parser) peek() Token   { return p.toks[p.pos] }
func (p *Parser) atEOF() bool   { return p.peek().Kind == TokEOF }
func (p *Parser) next() Token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) backup()       { p.pos-- }
func (p *Parser) save() int     { return p.pos }
func (p *Parser) restore(s int) { p.pos = s }

func (p *Parser) errorf(format string, args ...interface{}) error {
	t := p.peek()
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Pos: t.Pos, Line: t.Line}
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, found %s", t)
}

// --- statements ---

// ParseStatement parses one statement.
func (p *Parser) ParseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement, found %s", t)
	}
	switch t.Text {
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "DELETE":
		return p.parseDelete()
	case "DROP":
		return p.parseDrop()
	case "SELECT":
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &SelectStmt{Select: sel}, nil
	case "CALL":
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.acceptSymbol("(") {
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		return &Call{Name: name}, nil
	}
	return nil, p.errorf("unsupported statement starting with %s", t)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("VIEW"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateView{Name: name, Select: sel}, nil
	case p.acceptKeyword("ASSERTION"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("CHECK"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		check, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateAssertion{Name: name, Check: check}, nil
	}
	return nil, p.errorf("expected TABLE, VIEW or ASSERTION after CREATE")
}

func (p *Parser) parseType() (sqltypes.Kind, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return sqltypes.KindNull, p.errorf("expected column type, found %s", t)
	}
	p.pos++
	switch t.Text {
	case "INTEGER", "INT":
		return sqltypes.KindInt, nil
	case "REAL", "FLOAT":
		return sqltypes.KindFloat, nil
	case "VARCHAR", "TEXT":
		// Optional length: VARCHAR(25) — length is parsed and ignored.
		if p.acceptSymbol("(") {
			if tok := p.peek(); tok.Kind == TokInt {
				p.pos++
			}
			if err := p.expectSymbol(")"); err != nil {
				return sqltypes.KindNull, err
			}
		}
		return sqltypes.KindString, nil
	case "BOOLEAN":
		return sqltypes.KindBool, nil
	}
	p.backup()
	return sqltypes.KindNull, p.errorf("unsupported column type %s", t)
}

func (p *Parser) parseIdentList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var names []string
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return names, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if ct.PrimaryKey != nil {
				return nil, p.errorf("duplicate PRIMARY KEY clause in table %s", name)
			}
			ct.PrimaryKey = cols
		case p.acceptKeyword("FOREIGN"):
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if len(refCols) != len(cols) {
				return nil, p.errorf("foreign key column count mismatch (%d vs %d)", len(cols), len(refCols))
			}
			ct.ForeignKeys = append(ct.ForeignKeys, ForeignKeyDef{Columns: cols, RefTable: ref, RefColumns: refCols})
		default:
			colName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			def := ColumnDef{Name: colName, Type: typ}
			for {
				if p.acceptKeyword("NOT") {
					if err := p.expectKeyword("NULL"); err != nil {
						return nil, err
					}
					def.NotNull = true
					continue
				}
				if p.acceptKeyword("PRIMARY") {
					if err := p.expectKeyword("KEY"); err != nil {
						return nil, err
					}
					def.PrimaryKey = true
					def.NotNull = true
					continue
				}
				break
			}
			ct.Columns = append(ct.Columns, def)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if len(ct.Columns) == 0 {
		return nil, p.errorf("table %s has no columns", name)
	}
	return ct, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.peek().Kind == TokSymbol && p.peek().Text == "(" {
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		del.Alias = alias
	} else if p.peek().Kind == TokIdent {
		del.Alias = p.next().Text
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKeyword("VIEW"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropView{Name: name}, nil
	}
	return nil, p.errorf("expected TABLE or VIEW after DROP")
}

// --- queries ---

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	if p.acceptSymbol("*") {
		sel.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().Kind == TokIdent {
				item.Alias = p.next().Text
			}
			sel.Columns = append(sel.Columns, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr := TableRef{Table: table}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			tr.Alias = alias
		} else if p.peek().Kind == TokIdent {
			tr.Alias = p.next().Text
		}
		sel.From = append(sel.From, tr)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("UNION") {
		sel.UnionAll = p.acceptKeyword("ALL")
		u, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.Union = u
	}
	return sel, nil
}

// --- expressions (precedence climbing: OR < AND < NOT < cmp/IN/IS < add < mul < unary) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		// NOT EXISTS folds into the Exists node.
		if p.acceptKeyword("EXISTS") {
			q, err := p.parseSubquery()
			if err != nil {
				return nil, err
			}
			return &Exists{Negated: true, Query: q}, nil
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return foldNot(e), nil
	}
	return p.parseComparison()
}

// foldNot pushes a NOT into nodes that carry their own negation flag.
func foldNot(e Expr) Expr {
	switch x := e.(type) {
	case *Exists:
		return &Exists{Negated: !x.Negated, Query: x.Query}
	case *InSubquery:
		return &InSubquery{Negated: !x.Negated, E: x.E, Query: x.Query}
	case *InList:
		return &InList{Negated: !x.Negated, E: x.E, Items: x.Items}
	case *IsNull:
		return &IsNull{Negated: !x.Negated, E: x.E}
	case *Not:
		return x.E
	}
	return &Not{E: e}
}

func (p *Parser) parseComparison() (Expr, error) {
	if p.acceptKeyword("EXISTS") {
		q, err := p.parseSubquery()
		if err != nil {
			return nil, err
		}
		return &Exists{Query: q}, nil
	}
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Negated: neg, E: l}, nil
	}
	// [NOT] IN / [NOT] BETWEEN
	neg := false
	if p.acceptKeyword("NOT") {
		neg = true
		if !(p.peek().Kind == TokKeyword && (p.peek().Text == "IN" || p.peek().Text == "BETWEEN")) {
			return nil, p.errorf("expected IN or BETWEEN after NOT, found %s", p.peek())
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.peek().Kind == TokKeyword && p.peek().Text == "SELECT" {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InSubquery{Negated: neg, E: l, Query: q}, nil
		}
		var items []Expr
		for {
			it, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, it)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InList{Negated: neg, E: l, Items: items}, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		rng := &Binary{Op: OpAnd,
			L: &Binary{Op: OpGe, L: l, R: lo},
			R: &Binary{Op: OpLe, L: l, R: hi}}
		if neg {
			return &Not{E: rng}, nil
		}
		return rng, nil
	}
	if neg {
		return nil, p.errorf("dangling NOT")
	}
	t := p.peek()
	if t.Kind == TokSymbol {
		var op BinaryOp
		found := true
		switch t.Text {
		case "=":
			op = OpEq
		case "<>":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			found = false
		}
		if found {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.acceptSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case p.acceptSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		// Fold the sign into an immediately following numeric literal before
		// parsing its digits, so -9223372036854775808 (int64 min, whose
		// magnitude alone overflows) parses as the literal it is.
		if t := p.peek(); t.Kind == TokInt || t.Kind == TokFloat {
			lit, err := p.parseNumericLiteral(true)
			if err != nil {
				return nil, err
			}
			return lit, nil
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch lit.Value.Kind() {
			case sqltypes.KindInt:
				i := lit.Value.Int()
				if i == math.MinInt64 {
					return nil, p.errorf("integer literal %d cannot be negated", i)
				}
				return &Literal{Value: sqltypes.NewInt(-i)}, nil
			case sqltypes.KindFloat:
				return &Literal{Value: sqltypes.NewFloat(-lit.Value.Float())}, nil
			}
		}
		return &Neg{E: e}, nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

// parseNumericLiteral consumes the current INT/FLOAT token, applying an
// optional leading minus sign. Out-of-range literals are reported at the
// literal's own position.
func (p *Parser) parseNumericLiteral(negated bool) (*Literal, error) {
	t := p.next()
	text := t.Text
	if negated {
		text = "-" + text
	}
	if t.Kind == TokInt {
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, &SyntaxError{
				Msg: fmt.Sprintf("integer literal %s does not fit in 64 bits", text),
				Pos: t.Pos, Line: t.Line,
			}
		}
		return &Literal{Value: sqltypes.NewInt(v)}, nil
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, &SyntaxError{
			Msg: fmt.Sprintf("numeric literal %s is out of range", text),
			Pos: t.Pos, Line: t.Line,
		}
	}
	return &Literal{Value: sqltypes.NewFloat(v)}, nil
}

func (p *Parser) parseSubquery() (*Select, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt, TokFloat:
		return p.parseNumericLiteral(false)
	case TokString:
		p.pos++
		return &Literal{Value: sqltypes.NewString(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &Literal{Value: sqltypes.Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Value: sqltypes.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Value: sqltypes.NewBool(false)}, nil
		case "EXISTS":
			p.pos++
			q, err := p.parseSubquery()
			if err != nil {
				return nil, err
			}
			return &Exists{Query: q}, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case TokIdent:
		p.pos++
		name := t.Text
		if p.acceptSymbol("(") {
			return p.parseFuncCall(name)
		}
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			// A scalar subquery or a parenthesised expression.
			if p.peek().Kind == TokKeyword && p.peek().Text == "SELECT" {
				q, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &ScalarSubquery{Query: q}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

// knownFuncs are the only callable functions; aggregates plus COALESCE.
var knownFuncs = map[string]int{
	"COUNT": 1, "SUM": 1, "MIN": 1, "MAX": 1, "AVG": 1, "COALESCE": 2,
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	upper := strings.ToUpper(name)
	arity, known := knownFuncs[upper]
	if !known {
		return nil, p.errorf("function %s is not supported (aggregates COUNT/SUM/MIN/MAX/AVG and COALESCE only)", name)
	}
	fc := &FuncCall{Name: upper}
	if upper == "COUNT" && p.acceptSymbol("*") {
		fc.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if len(fc.Args) != arity {
		return nil, p.errorf("%s expects %d argument(s), got %d", upper, arity, len(fc.Args))
	}
	return fc, nil
}

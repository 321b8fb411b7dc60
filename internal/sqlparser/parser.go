package sqlparser

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"tintin/internal/sqltypes"
)

// parser is a recursive-descent parser that pulls tokens from its lexer on
// demand: it never looks more than three tokens ahead (enough to read "- 5 ,"
// as one literal item), so it holds no slice of the input's tokens.
type parser struct {
	lx     Lexer
	win    [3]Token // win[:n] are the tokens lexed but not consumed; win[0] is the current one
	n      int
	lexErr error        // the first lexing error; the lexer reads as ended from there
	vals   sqltypes.Row // the literal VALUES tuple being parsed, reused across tuples
}

func newParser(src string) *parser { return &parser{lx: Lexer{src: src, line: 1}} }

// done settles the error of a parse that has stopped: a lexing error anywhere
// in the input wins over a parse error. A parse that failed early lexes the
// rest of the input first; one that succeeded has lexed it all already.
func (p *parser) done(err error) error {
	if err != nil {
		for p.lex().Kind != TokEOF {
		}
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// Parse parses a single statement from src; trailing tokens are an error
// (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	p := newParser(src)
	st, err := p.parseStatement()
	if err == nil {
		p.acceptSymbol(";")
		if !p.atEOF() {
			err = p.errorf("unexpected %s after statement", p.peek())
		}
	}
	if err := p.done(err); err != nil {
		return nil, err
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p := newParser(src)
	out, err := p.parseScript()
	if err := p.done(err); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseScript() ([]Statement, error) {
	var out []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		st, err := p.parseStatement()
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
	p := newParser(src)
	sel, err := p.parseSelect()
	if err == nil {
		p.acceptSymbol(";")
		if !p.atEOF() {
			err = p.errorf("unexpected %s after query", p.peek())
		}
	}
	if err := p.done(err); err != nil {
		return nil, err
	}
	return sel, nil
}

// ParseExpr parses a single boolean/scalar expression.
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && !p.atEOF() {
		err = p.errorf("unexpected %s after expression", p.peek())
	}
	if err := p.done(err); err != nil {
		return nil, err
	}
	return e, nil
}

// --- token helpers ---

// lex returns the lexer's next token. From the first lexing error on, which
// it keeps for done, it returns end of input.
func (p *parser) lex() Token {
	if p.lexErr == nil {
		t, err := p.lx.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF, Pos: p.lx.pos, Line: p.lx.line}
}

// tok returns the token k places after the current one (k < len(p.win)).
func (p *parser) tok(k int) Token {
	for p.n <= k {
		p.win[p.n] = p.lex()
		p.n++
	}
	return p.win[k]
}

func (p *parser) peek() Token { return p.tok(0) }
func (p *parser) atEOF() bool { return p.peek().Kind == TokEOF }

// next consumes the current token and returns it.
func (p *parser) next() Token {
	t := p.tok(0)
	p.n--
	copy(p.win[:p.n], p.win[1:])
	return t
}

// errorAt reports a syntax error at token t.
func errorAt(t Token, format string, args ...interface{}) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Pos: t.Pos, Line: t.Line}
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return errorAt(p.peek(), format, args...)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.next()
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, found %s", t)
}

// --- statements ---

// parseStatement parses one statement.
func (p *parser) parseStatement() (Statement, error) {
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

func (p *parser) parseCreate() (Statement, error) {
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

func (p *parser) parseType() (sqltypes.Kind, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return sqltypes.KindNull, p.errorf("expected column type, found %s", t)
	}
	p.next()
	switch t.Text {
	case "INTEGER", "INT":
		return sqltypes.KindInt, nil
	case "REAL", "FLOAT":
		return sqltypes.KindFloat, nil
	case "VARCHAR", "TEXT":
		// Optional length: VARCHAR(25) — length is parsed and ignored.
		if p.acceptSymbol("(") {
			if tok := p.peek(); tok.Kind == TokInt {
				p.next()
			}
			if err := p.expectSymbol(")"); err != nil {
				return sqltypes.KindNull, err
			}
		}
		return sqltypes.KindString, nil
	case "BOOLEAN":
		return sqltypes.KindBool, nil
	}
	return sqltypes.KindNull, errorAt(t, "unsupported column type %s", t)
}

// parseIdentList parses a parenthesised list of names. With unique set, a
// name listed twice is an error at its second mention.
func (p *parser) parseIdentList(unique bool) ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var names []string
	for {
		t := p.peek()
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if unique && slices.Contains(names, n) {
			return nil, errorAt(t, "column %s is listed twice", formatIdent(n))
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

func (p *parser) parseCreateTable() (Statement, error) {
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
			cols, err := p.parseIdentList(false)
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
			cols, err := p.parseIdentList(false)
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
			refCols, err := p.parseIdentList(false)
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

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if t := p.peek(); t.Kind == TokSymbol && t.Text == "(" {
		cols, err := p.parseIdentList(true)
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
		tup, err := p.parseTuple()
		if err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, tup)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

// parseTuple parses the items of one VALUES tuple and its closing ")". While
// every item is a literal the values collect in a row and no expression node
// is built; the first item that is not turns the tuple into its expression
// form.
func (p *parser) parseTuple() (Tuple, error) {
	vals := p.vals[:0]
	var exprs []Expr // nil while every item is a literal
	for {
		e, v, err := p.parseItem()
		if err != nil {
			return Tuple{}, err
		}
		switch {
		case e == nil && exprs == nil:
			vals = append(vals, v)
		case e == nil:
			exprs = append(exprs, &Literal{Value: v})
		default:
			if exprs == nil {
				exprs = make([]Expr, len(vals), len(vals)+1)
				for i, v := range vals {
					exprs[i] = &Literal{Value: v}
				}
			}
			exprs = append(exprs, e)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	p.vals = vals
	if err := p.expectSymbol(")"); err != nil {
		return Tuple{}, err
	}
	if exprs != nil {
		return Tuple{Exprs: exprs}, nil
	}
	return Tuple{Values: slices.Clone(vals)}, nil
}

// parseItem parses one VALUES item. A literal comes back as its value with a
// nil expression. A number, a signed number, a string, NULL, TRUE or FALSE
// followed by "," or ")" is read off the token window without building a
// node; any other item that parses to a *Literal, such as "(5)" or "- -5",
// is unwrapped.
func (p *parser) parseItem() (Expr, sqltypes.Value, error) {
	t := p.peek()
	switch {
	case (t.Kind == TokInt || t.Kind == TokFloat) && p.endsItem(1):
		v, err := p.parseNumber(false)
		return nil, v, err
	case t.Kind == TokSymbol && t.Text == "-" && p.endsItem(2):
		if n := p.tok(1); n.Kind == TokInt || n.Kind == TokFloat {
			p.next()
			v, err := p.parseNumber(true)
			return nil, v, err
		}
	case p.endsItem(1):
		if v, ok := literalValue(t); ok {
			p.next()
			return nil, v, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, sqltypes.Null, err
	}
	if lit, ok := e.(*Literal); ok {
		return nil, lit.Value, nil
	}
	return e, sqltypes.Null, nil
}

// endsItem reports whether the token k places ahead closes a VALUES item.
func (p *parser) endsItem(k int) bool {
	t := p.tok(k)
	return t.Kind == TokSymbol && (t.Text == "," || t.Text == ")")
}

func (p *parser) parseDelete() (Statement, error) {
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

func (p *parser) parseDrop() (Statement, error) {
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

func (p *parser) parseSelect() (*Select, error) {
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

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
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

func (p *parser) parseAnd() (Expr, error) {
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

func (p *parser) parseNot() (Expr, error) {
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

func (p *parser) parseComparison() (Expr, error) {
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
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
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

func (p *parser) parseMultiplicative() (Expr, error) {
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

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		// Fold the sign into an immediately following numeric literal before
		// parsing its digits, so -9223372036854775808 (int64 min, whose
		// magnitude alone overflows) parses as the literal it is.
		if t := p.peek(); t.Kind == TokInt || t.Kind == TokFloat {
			v, err := p.parseNumber(true)
			if err != nil {
				return nil, err
			}
			return &Literal{Value: v}, nil
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

// parseNumber consumes the current INT/FLOAT token, applying an optional
// leading minus sign. Out-of-range literals are reported at the literal's
// own position.
func (p *parser) parseNumber(negated bool) (sqltypes.Value, error) {
	t := p.next()
	sign := ""
	if negated {
		sign = "-"
	}
	if t.Kind == TokInt {
		// The magnitude is parsed unsigned, so the sign needs no new string
		// and -9223372036854775808 (int64 min) still fits.
		u, err := strconv.ParseUint(t.Text, 10, 64)
		if err != nil || u > math.MaxInt64 && !(negated && u == 1<<63) {
			return sqltypes.Null, errorAt(t, "integer literal %s%s does not fit in 64 bits", sign, t.Text)
		}
		if negated {
			return sqltypes.NewInt(-int64(u)), nil
		}
		return sqltypes.NewInt(int64(u)), nil
	}
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return sqltypes.Null, errorAt(t, "numeric literal %s%s is out of range", sign, t.Text)
	}
	if negated {
		f = -f
	}
	return sqltypes.NewFloat(f), nil
}

// literalValue returns the value of a string, NULL, TRUE or FALSE token.
func literalValue(t Token) (sqltypes.Value, bool) {
	switch {
	case t.Kind == TokString:
		return sqltypes.NewString(t.Text), true
	case t.Kind != TokKeyword:
	case t.Text == "NULL":
		return sqltypes.Null, true
	case t.Text == "TRUE":
		return sqltypes.NewBool(true), true
	case t.Text == "FALSE":
		return sqltypes.NewBool(false), true
	}
	return sqltypes.Null, false
}

func (p *parser) parseSubquery() (*Select, error) {
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

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	if v, ok := literalValue(t); ok {
		p.next()
		return &Literal{Value: v}, nil
	}
	switch t.Kind {
	case TokInt, TokFloat:
		v, err := p.parseNumber(false)
		if err != nil {
			return nil, err
		}
		return &Literal{Value: v}, nil
	case TokKeyword:
		if t.Text == "EXISTS" {
			p.next()
			q, err := p.parseSubquery()
			if err != nil {
				return nil, err
			}
			return &Exists{Query: q}, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case TokIdent:
		p.next()
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
			p.next()
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

func (p *parser) parseFuncCall(name string) (Expr, error) {
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

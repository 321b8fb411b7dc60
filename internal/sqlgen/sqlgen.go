// Package sqlgen translates Event Dependency Constraints into standard SQL
// queries (§2 step 3 of the paper): positive literals become FROM items
// joined through shared variables, event predicates reference the ins_T /
// del_T auxiliary tables, builtins land in the WHERE clause, and negated
// (base or derived) literals become correlated NOT EXISTS subqueries.
//
// The generated queries are stored as views; safeCommit evaluates them and
// reports any rows as assertion violations.
package sqlgen

import (
	"fmt"

	"tintin/internal/edc"
	"tintin/internal/logic"
	"tintin/internal/sqlparser"
	"tintin/internal/storage"
)

// maxExpansion bounds the inlining of positive derived literals.
const maxExpansion = 256

// Generator turns EDCs into SELECT statements.
type Generator struct {
	cat   logic.Catalog
	rules map[string][]logic.Rule

	aliasSeq int
	varSeq   int
}

// New returns a generator over the catalog and the EDC set's derived rules.
func New(cat logic.Catalog, rules map[string][]logic.Rule) *Generator {
	return &Generator{cat: cat, rules: rules}
}

// Select generates the incremental SQL query for one EDC.
func (g *Generator) Select(e edc.EDC) (*sqlparser.Select, error) {
	sel, err := g.bodySelect(e.Body, nil)
	if err != nil {
		return nil, fmt.Errorf("edc %s: %w", e.Name, err)
	}
	return sel, nil
}

// ViewName returns the stored-view name for the i-th EDC of an assertion,
// mirroring the paper's atLeastOneLineItem1-style naming.
func ViewName(assertion string, i int) string {
	return fmt.Sprintf("%s%d", assertion, i+1)
}

func (g *Generator) freshAlias() string {
	a := fmt.Sprintf("t%d", g.aliasSeq)
	g.aliasSeq++
	return a
}

// freshVar names the variables Rule.Instantiate introduces. The leading G
// keeps them apart from the names the EDC generator gave its own
// instantiations, which the rules and EDC bodies already carry.
func (g *Generator) freshVar(prefix string) string {
	g.varSeq++
	return fmt.Sprintf("G%s%d", prefix, g.varSeq)
}

// tableName maps an atom to the SQL table it reads.
func tableName(a logic.Atom) (string, error) {
	switch a.Kind {
	case logic.PredBase:
		return a.Name, nil
	case logic.PredIns:
		return storage.InsTable(a.Name), nil
	case logic.PredDel:
		return storage.DelTable(a.Name), nil
	}
	return "", fmt.Errorf("sqlgen: internal: derived atom %s has no table", a.Name)
}

// bindings maps variable names to the SQL expression that produces them.
type bindings map[string]sqlparser.Expr

func (b bindings) clone() bindings {
	out := make(bindings, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// bodySelect builds SELECT * FROM <positives> WHERE <joins, builtins,
// negations> for a conjunctive body. outer supplies bindings for variables
// correlated from an enclosing query.
func (g *Generator) bodySelect(body logic.Body, outer bindings) (*sqlparser.Select, error) {
	expanded, err := g.expandPositiveDerived(body, 0)
	if err != nil {
		return nil, err
	}
	if len(expanded) == 0 {
		return nil, fmt.Errorf("sqlgen: body %s is unsatisfiable (derived predicate with no rules)", body)
	}
	var root *sqlparser.Select
	var last *sqlparser.Select
	for _, b := range expanded {
		sel, err := g.simpleBodySelect(b, outer)
		if err != nil {
			return nil, err
		}
		if root == nil {
			root = sel
		} else {
			last.Union = sel
			last.UnionAll = true
		}
		last = sel
	}
	return root, nil
}

// simpleBodySelect handles a body with no positive derived literals.
func (g *Generator) simpleBodySelect(body logic.Body, outer bindings) (*sqlparser.Select, error) {
	sel := &sqlparser.Select{Star: true}
	bind := outer.clone()
	if bind == nil {
		bind = bindings{}
	}
	var conj []sqlparser.Expr

	// Positive base/event literals: FROM items.
	for _, l := range body.Lits {
		if l.Neg || l.Atom.Kind == logic.PredDerived {
			continue
		}
		tbl, err := tableName(l.Atom)
		if err != nil {
			return nil, err
		}
		cols, ok := g.cat.TableColumns(l.Atom.Name)
		if !ok {
			return nil, fmt.Errorf("sqlgen: unknown table %s", l.Atom.Name)
		}
		if len(cols) != len(l.Atom.Args) {
			return nil, fmt.Errorf("sqlgen: arity mismatch for %s: %d args, %d columns", l.Atom.Name, len(l.Atom.Args), len(cols))
		}
		alias := g.freshAlias()
		sel.From = append(sel.From, sqlparser.TableRef{Table: tbl, Alias: alias})
		for i, arg := range l.Atom.Args {
			ref := &sqlparser.ColumnRef{Qualifier: alias, Name: cols[i]}
			if arg.IsConst {
				conj = append(conj, &sqlparser.Binary{Op: sqlparser.OpEq, L: ref, R: &sqlparser.Literal{Value: arg.Const}})
				continue
			}
			if prev, bound := bind[arg.Name]; bound {
				conj = append(conj, &sqlparser.Binary{Op: sqlparser.OpEq, L: ref, R: prev})
			} else {
				bind[arg.Name] = ref
			}
		}
	}
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sqlgen: body %s has no positive base literal to select from", body)
	}

	// Builtins.
	for _, bi := range body.Builtins {
		e, err := g.builtinExpr(bi, bind)
		if err != nil {
			return nil, err
		}
		conj = append(conj, e)
	}

	// Negated literals: correlated NOT EXISTS.
	for _, l := range body.Lits {
		if !l.Neg {
			continue
		}
		es, err := g.negatedExprs(l.Atom, bind)
		if err != nil {
			return nil, err
		}
		conj = append(conj, es...)
	}

	// Aggregate conditions.
	for _, a := range body.Aggs {
		es, err := g.aggExprs(a, bind)
		if err != nil {
			return nil, err
		}
		conj = append(conj, es...)
	}

	sel.Where = sqlparser.AndAll(conj)
	return sel, nil
}

// negatedExprs renders ¬atom as one or more NOT EXISTS conditions.
func (g *Generator) negatedExprs(a logic.Atom, bind bindings) ([]sqlparser.Expr, error) {
	if a.Kind != logic.PredDerived {
		sub, err := g.negatedBaseSelect(a, bind)
		if err != nil {
			return nil, err
		}
		return []sqlparser.Expr{&sqlparser.Exists{Negated: true, Query: sub}}, nil
	}
	// ¬d(t̄): one NOT EXISTS per rule of d (¬(A ∨ B) = ¬A ∧ ¬B).
	rules := g.rules[a.Name]
	var out []sqlparser.Expr
	for _, r := range rules {
		body, err := r.Instantiate(a.Args, g.freshVar)
		if err != nil {
			return nil, err
		}
		sub, err := g.bodySelect(body, bind)
		if err != nil {
			return nil, err
		}
		out = append(out, &sqlparser.Exists{Negated: true, Query: sub})
	}
	return out, nil
}

// negatedBaseSelect builds the subquery of NOT EXISTS for a base/event atom:
// conditions for constants and bound variables; local variables are free.
//
// Negated del atoms always come from the new-state subtraction T ∧ ¬δT over
// the same variable tuple — a row-identity match, not a SQL join. A deleted
// (1, NULL) row must match itself even though NULL = NULL is UNKNOWN, so
// their variable matches are NULL-safe. Negated ins atoms (¬p ∧ ¬ιp) bind
// user-join variables, where SQL NULL-failing equality is the required
// semantics.
func (g *Generator) negatedBaseSelect(a logic.Atom, bind bindings) (*sqlparser.Select, error) {
	tbl, err := tableName(a)
	if err != nil {
		return nil, err
	}
	cols, ok := g.cat.TableColumns(a.Name)
	if !ok {
		return nil, fmt.Errorf("sqlgen: unknown table %s", a.Name)
	}
	alias := g.freshAlias()
	sel := &sqlparser.Select{Star: true, From: []sqlparser.TableRef{{Table: tbl, Alias: alias}}}
	rowIdent := a.Kind == logic.PredDel
	match := func(ref *sqlparser.ColumnRef, prev sqlparser.Expr) sqlparser.Expr {
		eq := sqlparser.Expr(&sqlparser.Binary{Op: sqlparser.OpEq, L: ref, R: prev})
		if rowIdent {
			eq = &sqlparser.Binary{Op: sqlparser.OpOr, L: eq,
				R: &sqlparser.Binary{Op: sqlparser.OpAnd,
					L: &sqlparser.IsNull{E: ref},
					R: &sqlparser.IsNull{E: prev}}}
		}
		return eq
	}
	var conj []sqlparser.Expr
	local := bindings{}
	for i, arg := range a.Args {
		ref := &sqlparser.ColumnRef{Qualifier: alias, Name: cols[i]}
		switch {
		case arg.IsConst:
			conj = append(conj, &sqlparser.Binary{Op: sqlparser.OpEq, L: ref, R: &sqlparser.Literal{Value: arg.Const}})
		default:
			if prev, bound := bind[arg.Name]; bound {
				conj = append(conj, match(ref, prev))
			} else if prev, bound := local[arg.Name]; bound {
				// Repeated local variable within the negated atom.
				conj = append(conj, match(ref, prev))
			} else {
				local[arg.Name] = ref
			}
		}
	}
	sel.Where = sqlparser.AndAll(conj)
	return sel, nil
}

func (g *Generator) builtinExpr(bi logic.Builtin, bind bindings) (sqlparser.Expr, error) {
	l, err := termExpr(bi.L, bind)
	if err != nil {
		return nil, err
	}
	var r sqlparser.Expr
	if !bi.Op.Unary() {
		if r, err = termExpr(bi.R, bind); err != nil {
			return nil, err
		}
	}
	return cmpExpr(bi.Op, l, r), nil
}

// cmpExpr renders the comparison l op r, or for a null test l IS [NOT]
// NULL (r unused).
func cmpExpr(op logic.CmpOp, l, r sqlparser.Expr) sqlparser.Expr {
	switch op {
	case logic.CmpIsNull:
		return &sqlparser.IsNull{E: l}
	case logic.CmpIsNotNull:
		return &sqlparser.IsNull{Negated: true, E: l}
	}
	return &sqlparser.Binary{Op: op.SQL(), L: l, R: r}
}

func termExpr(t logic.Term, bind bindings) (sqlparser.Expr, error) {
	if t.IsConst {
		return &sqlparser.Literal{Value: t.Const}, nil
	}
	if e, ok := bind[t.Name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("sqlgen: variable %s is not bound (unsafe body)", t.Name)
}

// expandPositiveDerived inlines positive derived literals by replacing them
// with their rule bodies (cartesian product over rules), recursively.
func (g *Generator) expandPositiveDerived(body logic.Body, depth int) ([]logic.Body, error) {
	if depth > 16 {
		return nil, fmt.Errorf("sqlgen: derived predicate inlining exceeds depth 16")
	}
	idx := -1
	for i, l := range body.Lits {
		if !l.Neg && l.Atom.Kind == logic.PredDerived {
			idx = i
			break
		}
	}
	if idx < 0 {
		return []logic.Body{body}, nil
	}
	call := body.Lits[idx]
	rest := logic.Body{Builtins: body.Builtins}
	for i, l := range body.Lits {
		if i != idx {
			rest.Lits = append(rest.Lits, l)
		}
	}
	rules := g.rules[call.Atom.Name]
	if len(rules) == 0 {
		return nil, nil // no rules: the positive literal is unsatisfiable
	}
	var out []logic.Body
	for _, r := range rules {
		inlined, err := r.Instantiate(call.Atom.Args, g.freshVar)
		if err != nil {
			return nil, err
		}
		merged := rest.Clone()
		merged.Merge(inlined)
		subs, err := g.expandPositiveDerived(merged, depth+1)
		if err != nil {
			return nil, err
		}
		out = append(out, subs...)
		if len(out) > maxExpansion {
			return nil, fmt.Errorf("sqlgen: positive derived expansion exceeds %d bodies", maxExpansion)
		}
	}
	return out, nil
}

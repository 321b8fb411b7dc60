package logic

import (
	"fmt"
	"strings"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// Catalog supplies table schemas to the translator.
type Catalog interface {
	// TableColumns returns the ordered column names of a base table,
	// or ok=false when the table does not exist.
	TableColumns(name string) (cols []string, ok bool)
}

// maxVariants bounds the DNF expansion of one assertion.
const maxVariants = 64

// Translate rewrites a SQL assertion CHECK condition into logic denials:
// the denial bodies are the ways the assertion can be *violated*
// (the negation of the CHECK condition, in disjunctive normal form).
func Translate(name string, check sqlparser.Expr, cat Catalog) (*Translation, error) {
	t := &translator{cat: cat, tr: &Translation{Assertion: name}}
	disjuncts, err := t.dnf(check, true) // negate: violation condition
	if err != nil {
		return nil, fmt.Errorf("assertion %s: %w", name, err)
	}
	for _, conj := range disjuncts {
		bodies := []*Body{{}}
		sc := (*scope)(nil)
		for _, cond := range conj {
			var next []*Body
			for _, b := range bodies {
				rs, err := t.applyCond(b, scopeFor(sc, b), cond)
				if err != nil {
					return nil, fmt.Errorf("assertion %s: %w", name, err)
				}
				next = append(next, rs...)
			}
			bodies = next
			if len(bodies) > maxVariants {
				return nil, fmt.Errorf("logic: assertion %s: condition expands to more than %d conjunctive variants", name, maxVariants)
			}
		}
		for i, b := range bodies {
			if err := t.checkSafety(b); err != nil {
				return nil, fmt.Errorf("assertion %s: %w", name, err)
			}
			dn := name
			if len(disjuncts) > 1 || len(bodies) > 1 {
				dn = fmt.Sprintf("%s_v%d_%d", name, len(t.tr.Denials)+1, i+1)
			}
			t.tr.Denials = append(t.tr.Denials, Denial{Name: dn, Body: *b})
		}
	}
	if len(t.tr.Denials) == 0 {
		return nil, fmt.Errorf("logic: assertion %s: CHECK condition is a tautology (never violated)", name)
	}
	return t.tr, nil
}

type translator struct {
	cat     Catalog
	tr      *Translation
	slotSeq int
	derived int
}

// scope is the alias environment of one (sub)query during translation.
// Column references resolve against the positive atoms of the scope's body.
type scope struct {
	parent  *scope
	body    *Body
	entries []scopeEntry
	locals  map[string]bool // variables created at this scope
}

type scopeEntry struct {
	alias string
	slot  int
	cols  map[string]int
}

// scopeFor rebinds the innermost scope's body pointer (used when processing
// top-level conditions where the body is freshly cloned per variant).
func scopeFor(sc *scope, b *Body) *scope {
	if sc == nil {
		return &scope{body: b, locals: map[string]bool{}}
	}
	out := *sc
	out.body = b
	return &out
}

// --- DNF normalization of the violation condition ---

// dnf converts e (negated when neg) into a disjunction of conjunct lists over
// atomic conditions: [NOT] EXISTS, [NOT] IN-subquery, comparisons, IS [NOT]
// NULL, boolean literals.
func (t *translator) dnf(e sqlparser.Expr, neg bool) ([][]sqlparser.Expr, error) {
	switch x := e.(type) {
	case *sqlparser.Not:
		return t.dnf(x.E, !neg)
	case *sqlparser.Binary:
		switch x.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			union := (x.Op == sqlparser.OpOr) != neg
			l, err := t.dnf(x.L, neg)
			if err != nil {
				return nil, err
			}
			r, err := t.dnf(x.R, neg)
			if err != nil {
				return nil, err
			}
			if union {
				return append(l, r...), nil
			}
			var out [][]sqlparser.Expr
			for _, a := range l {
				for _, b := range r {
					conj := make([]sqlparser.Expr, 0, len(a)+len(b))
					conj = append(append(conj, a...), b...)
					out = append(out, conj)
				}
			}
			if len(out) > maxVariants {
				return nil, fmt.Errorf("logic: condition expands to more than %d DNF terms", maxVariants)
			}
			return out, nil
		}
		if x.Op.IsComparison() {
			if neg {
				nop, ok := x.Op.Negate()
				if !ok {
					return nil, fmt.Errorf("logic: operator %s is not a condition", x.Op)
				}
				return [][]sqlparser.Expr{{&sqlparser.Binary{Op: nop, L: x.L, R: x.R}}}, nil
			}
			return [][]sqlparser.Expr{{x}}, nil
		}
		return nil, fmt.Errorf("logic: operator %s is not a condition", x.Op)
	case *sqlparser.Exists:
		return [][]sqlparser.Expr{{&sqlparser.Exists{Negated: x.Negated != neg, Query: x.Query}}}, nil
	case *sqlparser.InSubquery:
		if x.Negated != neg {
			// The violation condition contains x NOT IN (SELECT p FROM ...).
			// Under SQL three-valued logic this is TRUE — not merely
			// non-false — in exactly two situations:
			//
			//  (a) x is non-NULL and the subquery yields neither a matching
			//      value nor any NULL (a NULL p makes the test unknown);
			//  (b) the subquery yields no rows at all, in which case even a
			//      NULL x is NOT IN the empty set (IN over an empty set is
			//      FALSE, not unknown).
			//
			// The bare anti-join the NOT IN translation produces is
			// null-blind, so spell both disjuncts out. The NULL-probe
			// subquery keeps the original FROM/WHERE and additionally
			// demands p IS NULL; case (b) reuses the whole subquery under
			// NOT EXISTS. For a NOT NULL x the second disjunct simply
			// never fires at run time.
			nullProbe, err := inNullProbe(x.Query)
			if err != nil {
				return nil, err
			}
			nonNullCase := []sqlparser.Expr{
				&sqlparser.IsNull{Negated: true, E: x.E},
				&sqlparser.InSubquery{Negated: true, E: x.E, Query: x.Query},
				&sqlparser.Exists{Negated: true, Query: nullProbe},
			}
			emptyCase := []sqlparser.Expr{
				&sqlparser.IsNull{E: x.E},
				&sqlparser.Exists{Negated: true, Query: x.Query},
			}
			return [][]sqlparser.Expr{nonNullCase, emptyCase}, nil
		}
		return [][]sqlparser.Expr{{&sqlparser.InSubquery{E: x.E, Query: x.Query}}}, nil
	case *sqlparser.IsNull:
		return [][]sqlparser.Expr{{&sqlparser.IsNull{Negated: x.Negated != neg, E: x.E}}}, nil
	case *sqlparser.InList:
		// x IN (a, b) expands to x = a OR x = b before normalization.
		var or sqlparser.Expr
		for _, item := range x.Items {
			eq := &sqlparser.Binary{Op: sqlparser.OpEq, L: x.E, R: item}
			if or == nil {
				or = eq
			} else {
				or = &sqlparser.Binary{Op: sqlparser.OpOr, L: or, R: eq}
			}
		}
		if or == nil {
			or = &sqlparser.Literal{Value: sqltypes.NewBool(false)}
		}
		return t.dnf(or, x.Negated != neg)
	case *sqlparser.Literal:
		if x.Value.Kind() == sqltypes.KindBool {
			v := x.Value.Bool() != neg
			return [][]sqlparser.Expr{{&sqlparser.Literal{Value: sqltypes.NewBool(v)}}}, nil
		}
		return nil, fmt.Errorf("logic: literal %s is not a condition", x.Value)
	}
	return nil, fmt.Errorf("logic: unsupported condition %T in assertion", e)
}

// --- condition application ---

// applyCond extends body b with one atomic condition, returning the
// resulting variant bodies (empty when the condition is unsatisfiable).
func (t *translator) applyCond(b *Body, sc *scope, cond sqlparser.Expr) ([]*Body, error) {
	switch x := cond.(type) {
	case *sqlparser.Literal:
		if x.Value.Kind() == sqltypes.KindBool {
			if x.Value.Bool() {
				return []*Body{b}, nil
			}
			return nil, nil
		}
		return nil, fmt.Errorf("logic: literal %s is not a condition", x.Value)

	case *sqlparser.Binary:
		if !x.Op.IsComparison() {
			return nil, fmt.Errorf("logic: operator %s not supported in assertion condition", x.Op)
		}
		// Aggregate comparison: (SELECT AGG(...) FROM t WHERE ...) CMP value.
		lAgg, lIsAgg := x.L.(*sqlparser.ScalarSubquery)
		rAgg, rIsAgg := x.R.(*sqlparser.ScalarSubquery)
		switch {
		case lIsAgg && rIsAgg:
			return nil, fmt.Errorf("logic: comparing two aggregate subqueries is not supported")
		case lIsAgg:
			cond, err := t.translateAggCond(sc, lAgg, x.R, x.Op, false)
			if err != nil {
				return nil, err
			}
			b.Aggs = append(b.Aggs, cond)
			return []*Body{b}, nil
		case rIsAgg:
			cond, err := t.translateAggCond(sc, rAgg, x.L, x.Op, true)
			if err != nil {
				return nil, err
			}
			b.Aggs = append(b.Aggs, cond)
			return []*Body{b}, nil
		}
		l, err := t.resolveTerm(sc, x.L)
		if err != nil {
			return nil, err
		}
		r, err := t.resolveTerm(sc, x.R)
		if err != nil {
			return nil, err
		}
		if x.Op == sqlparser.OpEq {
			ok, err := t.unify(b, sc, l, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			return []*Body{b}, nil
		}
		if l.IsConst && r.IsConst {
			if holds, ok := evalConstCmp(cmpOpOf(x.Op), l.Const, r.Const); ok {
				if holds {
					return []*Body{b}, nil
				}
				return nil, nil
			}
		}
		b.Builtins = append(b.Builtins, Builtin{Op: cmpOpOf(x.Op), L: l, R: r})
		return []*Body{b}, nil

	case *sqlparser.IsNull:
		l, err := t.resolveTerm(sc, x.E)
		if err != nil {
			return nil, err
		}
		op := CmpIsNull
		if x.Negated {
			op = CmpIsNotNull
		}
		b.Builtins = append(b.Builtins, Builtin{Op: op, L: l})
		return []*Body{b}, nil

	case *sqlparser.Exists:
		if x.Negated {
			return t.applyNotExists(b, sc, x.Query, nil, Term{})
		}
		return t.applyExists(b, sc, x.Query, nil, Term{})

	case *sqlparser.InSubquery:
		outer, err := t.resolveTerm(sc, x.E)
		if err != nil {
			return nil, err
		}
		proj := func(q *sqlparser.Select) (sqlparser.Expr, error) {
			if q.Star || len(q.Columns) != 1 {
				return nil, fmt.Errorf("logic: IN subquery must project exactly one column")
			}
			return q.Columns[0].Expr, nil
		}
		if x.Negated {
			return t.applyNotExists(b, sc, x.Query, proj, outer)
		}
		return t.applyExists(b, sc, x.Query, proj, outer)
	}
	return nil, fmt.Errorf("logic: unsupported condition %T in assertion", cond)
}

// applyExists merges the subquery's translation into b. When proj is
// non-nil the projected column of each branch is unified with outer
// (IN-subquery semantics).
func (t *translator) applyExists(b *Body, sc *scope, q *sqlparser.Select,
	proj func(*sqlparser.Select) (sqlparser.Expr, error), outer Term) ([]*Body, error) {
	subs, _, err := t.translateSelect(q, sc, proj, outer)
	if err != nil {
		return nil, err
	}
	out := make([]*Body, 0, len(subs))
	for _, sb := range subs {
		nb := b.Clone()
		nb.Merge(*sb)
		out = append(out, &nb)
	}
	return out, nil
}

// applyNotExists adds the subquery negatively: as a plain negated literal
// when the subquery is a single positive table atom, otherwise as a negated
// derived predicate whose rules are the subquery variants.
func (t *translator) applyNotExists(b *Body, sc *scope, q *sqlparser.Select,
	proj func(*sqlparser.Select) (sqlparser.Expr, error), outer Term) ([]*Body, error) {
	subs, locals, err := t.translateSelect(q, sc, proj, outer)
	if err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		// The subquery is unsatisfiable: NOT EXISTS always holds.
		return []*Body{b}, nil
	}
	if len(subs) == 1 && len(subs[0].Lits) == 1 && !subs[0].Lits[0].Neg &&
		subs[0].Lits[0].Atom.Kind == PredBase && len(subs[0].Builtins) == 0 {
		b.Lits = append(b.Lits, Literal{Atom: subs[0].Lits[0].Atom, Neg: true})
		return []*Body{b}, nil
	}
	// Derived predicate: head args are the outer variables used in any variant.
	var headVars []string
	seen := map[string]bool{}
	for _, sb := range subs {
		for _, v := range sb.Vars() {
			if !locals[v] && !seen[v] {
				seen[v] = true
				headVars = append(headVars, v)
			}
		}
	}
	t.derived++
	name := fmt.Sprintf("%s$sub%d", strings.ToLower(t.tr.Assertion), t.derived)
	args := make([]Term, len(headVars))
	for i, v := range headVars {
		args[i] = Var(v)
	}
	head := Atom{Kind: PredDerived, Name: name, Args: args}
	for _, sb := range subs {
		t.tr.AddRule(Rule{Head: head.CloneAtom(), Body: *sb})
	}
	b.Lits = append(b.Lits, Literal{Atom: head, Neg: true})
	return []*Body{b}, nil
}

// translateSelect translates a (sub)query into one body per variant
// (UNION branch × WHERE-DNF disjunct). locals is the set of variables
// introduced by this query's FROM clauses.
func (t *translator) translateSelect(q *sqlparser.Select, parent *scope,
	proj func(*sqlparser.Select) (sqlparser.Expr, error), outer Term) ([]*Body, map[string]bool, error) {
	locals := map[string]bool{}
	var out []*Body
	for branch := q; branch != nil; branch = branch.Union {
		// Aggregate projections change a subquery's cardinality to exactly
		// one row; under EXISTS that would always hold, so reject them here
		// (aggregates belong in scalar comparisons).
		if !branch.Star {
			for _, it := range branch.Columns {
				if fc, isFn := it.Expr.(*sqlparser.FuncCall); isFn && fc.IsAggregate() {
					return nil, nil, fmt.Errorf("logic: aggregate %s is only supported in scalar comparisons, e.g. (SELECT %s(...) FROM t WHERE ...) <= k", fc.Name, fc.Name)
				}
			}
		}
		skeleton := &Body{}
		sc := &scope{parent: parent, body: skeleton, locals: locals}
		for _, tr := range branch.From {
			cols, ok := t.cat.TableColumns(tr.Table)
			if !ok {
				return nil, nil, fmt.Errorf("logic: unknown table %s (assertions must reference base tables)", tr.Table)
			}
			t.slotSeq++
			slot := t.slotSeq
			args := make([]Term, len(cols))
			colIdx := make(map[string]int, len(cols))
			for i, c := range cols {
				v := fmt.Sprintf("%s_%d", strings.ToUpper(c), slot)
				args[i] = Var(v)
				locals[v] = true
				colIdx[c] = i
			}
			alias := strings.ToLower(tr.EffectiveAlias())
			for _, e := range sc.entries {
				if e.alias == alias {
					return nil, nil, fmt.Errorf("logic: duplicate alias %s in FROM", alias)
				}
			}
			sc.entries = append(sc.entries, scopeEntry{alias: alias, slot: slot, cols: colIdx})
			skeleton.Lits = append(skeleton.Lits, Literal{
				Atom: Atom{Kind: PredBase, Name: strings.ToLower(tr.Table), Args: args, Slot: slot},
			})
		}
		// WHERE (plus the IN projection equality) in DNF.
		conds := [][]sqlparser.Expr{nil}
		if branch.Where != nil {
			var err error
			conds, err = t.dnf(branch.Where, false)
			if err != nil {
				return nil, nil, err
			}
		}
		var projExpr sqlparser.Expr
		if proj != nil {
			var err error
			projExpr, err = proj(branch)
			if err != nil {
				return nil, nil, err
			}
		}
		for _, conj := range conds {
			body := skeleton.Clone()
			bodies := []*Body{&body}
			for _, cond := range conj {
				var next []*Body
				for _, bb := range bodies {
					rs, err := t.applyCond(bb, scopeFor(sc, bb), cond)
					if err != nil {
						return nil, nil, err
					}
					next = append(next, rs...)
				}
				bodies = next
				if len(bodies) > maxVariants {
					return nil, nil, fmt.Errorf("logic: subquery expands to more than %d variants", maxVariants)
				}
			}
			if projExpr != nil {
				// IN-subquery semantics: the projected column equals the
				// outer expression in every variant.
				var kept []*Body
				for _, bb := range bodies {
					pt, err := t.resolveTerm(scopeFor(sc, bb), projExpr)
					if err != nil {
						return nil, nil, err
					}
					ok, err := t.unify(bb, scopeFor(sc, bb), pt, outer)
					if err != nil {
						return nil, nil, err
					}
					if ok {
						kept = append(kept, bb)
					}
				}
				bodies = kept
			}
			out = append(out, bodies...)
		}
	}
	return out, locals, nil
}

// inNullProbe builds, for every UNION branch of a NOT IN subquery, a copy
// whose WHERE additionally requires the projected column to be NULL: the
// existence of such a row makes the NOT IN test unknown instead of true, so
// the violation condition carries NOT EXISTS of this probe as a conjunct.
func inNullProbe(q *sqlparser.Select) (*sqlparser.Select, error) {
	var head, tail *sqlparser.Select
	for branch := q; branch != nil; branch = branch.Union {
		if branch.Star || len(branch.Columns) != 1 {
			return nil, fmt.Errorf("logic: IN subquery must project exactly one column")
		}
		p := branch.Columns[0].Expr
		clone := &sqlparser.Select{
			Columns: branch.Columns,
			From:    branch.From,
			Where: sqlparser.AndAll([]sqlparser.Expr{
				branch.Where,
				&sqlparser.IsNull{E: p},
			}),
			UnionAll: branch.UnionAll,
		}
		if head == nil {
			head = clone
		} else {
			tail.Union = clone
		}
		tail = clone
	}
	return head, nil
}

// resolveTerm resolves a scalar expression to a term (column or constant).
func (t *translator) resolveTerm(sc *scope, e sqlparser.Expr) (Term, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return Const(x.Value), nil
	case *sqlparser.Neg:
		inner, err := t.resolveTerm(sc, x.E)
		if err != nil {
			return Term{}, err
		}
		if inner.IsConst && inner.Const.IsNumeric() {
			if inner.Const.Kind() == sqltypes.KindInt {
				return Const(sqltypes.NewInt(-inner.Const.Int())), nil
			}
			return Const(sqltypes.NewFloat(-inner.Const.Float())), nil
		}
		return Term{}, fmt.Errorf("logic: arithmetic over columns is not supported in assertions")
	case *sqlparser.ColumnRef:
		return t.resolveColumn(sc, x)
	case *sqlparser.Binary:
		return Term{}, fmt.Errorf("logic: arithmetic/functions are not supported in assertions (the paper's fragment excludes them): %s", sqlparser.FormatExpr(e))
	}
	return Term{}, fmt.Errorf("logic: unsupported scalar expression %T in assertion", e)
}

func (t *translator) resolveColumn(sc *scope, cr *sqlparser.ColumnRef) (Term, error) {
	name := strings.ToLower(cr.Name)
	qual := strings.ToLower(cr.Qualifier)
	for cur := sc; cur != nil; cur = cur.parent {
		var hit *scopeEntry
		if qual != "" {
			for i := range cur.entries {
				if cur.entries[i].alias == qual {
					hit = &cur.entries[i]
					break
				}
			}
			if hit == nil {
				continue
			}
			ci, ok := hit.cols[name]
			if !ok {
				return Term{}, fmt.Errorf("logic: %s has no column %s", qual, name)
			}
			return atomArg(cur.body, hit.slot, ci)
		}
		found := -1
		var fe *scopeEntry
		for i := range cur.entries {
			if ci, ok := cur.entries[i].cols[name]; ok {
				if fe != nil {
					return Term{}, fmt.Errorf("logic: ambiguous column %s", name)
				}
				fe = &cur.entries[i]
				found = ci
			}
		}
		if fe != nil {
			return atomArg(cur.body, fe.slot, found)
		}
	}
	if qual != "" {
		return Term{}, fmt.Errorf("logic: unknown table or alias %s", qual)
	}
	return Term{}, fmt.Errorf("logic: unknown column %s", name)
}

func atomArg(b *Body, slot, col int) (Term, error) {
	for i := range b.Lits {
		if b.Lits[i].Atom.Slot == slot && !b.Lits[i].Neg {
			return b.Lits[i].Atom.Args[col], nil
		}
	}
	return Term{}, fmt.Errorf("logic: internal: atom for slot %d not found", slot)
}

// unify makes l and r equal within body b: by substitution when one side is
// a local variable of the current scope, by constant comparison when both
// are constants, and by an explicit builtin otherwise. Returns false when
// the equality is unsatisfiable.
func (t *translator) unify(b *Body, sc *scope, l, r Term) (bool, error) {
	if l.IsConst && r.IsConst {
		holds, ok := evalConstCmp(CmpEq, l.Const, r.Const)
		return ok && holds, nil
	}
	isLocal := func(x Term) bool { return !x.IsConst && sc.locals[x.Name] }
	switch {
	case isLocal(l):
		b.Substitute(l.Name, r)
	case isLocal(r):
		b.Substitute(r.Name, l)
	case !l.IsConst && !r.IsConst && l.Name == r.Name:
		// Already identical.
	default:
		b.Builtins = append(b.Builtins, Builtin{Op: CmpEq, L: l, R: r})
	}
	return true, nil
}

// sqlOps maps each binary comparison to its SQL operator: SQL reads it one
// way and cmpOpOf the other.
var sqlOps = [...]sqlparser.BinaryOp{
	CmpEq: sqlparser.OpEq,
	CmpNe: sqlparser.OpNe,
	CmpLt: sqlparser.OpLt,
	CmpLe: sqlparser.OpLe,
	CmpGt: sqlparser.OpGt,
	CmpGe: sqlparser.OpGe,
}

// SQL returns the SQL operator of a binary comparison. The null tests have
// none; asking for one is a bug.
func (op CmpOp) SQL() sqlparser.BinaryOp {
	if int(op) >= len(sqlOps) {
		panic("logic: not a binary comparison: " + op.String())
	}
	return sqlOps[op]
}

func cmpOpOf(op sqlparser.BinaryOp) CmpOp {
	for c, s := range sqlOps {
		if s == op {
			return CmpOp(c)
		}
	}
	panic("logic: not a comparison: " + op.String())
}

// evalConstCmp evaluates a comparison between constants; ok=false when the
// values are incomparable (e.g. NULL involved).
func evalConstCmp(op CmpOp, a, b sqltypes.Value) (holds, ok bool) {
	cmp, ok := sqltypes.Compare(a, b)
	if !ok {
		return false, false
	}
	switch op {
	case CmpEq:
		return cmp == 0, true
	case CmpNe:
		return cmp != 0, true
	case CmpLt:
		return cmp < 0, true
	case CmpLe:
		return cmp <= 0, true
	case CmpGt:
		return cmp > 0, true
	case CmpGe:
		return cmp >= 0, true
	}
	return false, false
}

// checkSafety verifies range restriction: builtin variables must be bound by
// a positive literal of the same body.
func (t *translator) checkSafety(b *Body) error {
	pos := b.PositiveVars()
	for _, bi := range b.Builtins {
		for _, term := range []Term{bi.L, bi.R} {
			// Unary builtins leave R as the zero term (empty name).
			if !term.IsConst && term.Name != "" && !pos[term.Name] {
				return fmt.Errorf("logic: unsafe condition: variable %s of builtin %s is not bound by a positive literal", term.Name, bi)
			}
		}
	}
	for _, a := range b.Aggs {
		vars := map[string]bool{}
		a.vars(vars)
		for v := range vars {
			if !pos[v] {
				return fmt.Errorf("logic: unsafe condition: variable %s of aggregate %s is not bound by a positive literal", v, a)
			}
		}
	}
	return nil
}

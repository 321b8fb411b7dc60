// Package logic defines the denial representation TINTIN rewrites SQL
// assertions into (§2 step 1 of the paper), plus derived-predicate rules.
//
// A denial is a conjunctive condition over positive literals, negated
// literals and builtin comparisons that must never hold:
//
//	order(O, P) ∧ ¬lineitem(L, N, O) → ⊥
//
// Negated literals may carry local (existentially quantified) variables;
// complex NOT EXISTS subqueries become negated derived predicates whose
// rules are carried alongside the denials.
package logic

import (
	"fmt"
	"sort"
	"strings"

	"tintin/internal/sqltypes"
)

// Term is a variable or a constant.
type Term struct {
	Name    string // variable name when !IsConst
	Const   sqltypes.Value
	IsConst bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Name: name} }

// Const returns a constant term.
func Const(v sqltypes.Value) Term { return Term{Const: v, IsConst: true} }

// String renders the term.
func (t Term) String() string {
	if t.IsConst {
		return t.Const.String()
	}
	return t.Name
}

// SameTerm reports structural equality of two terms.
func SameTerm(a, b Term) bool {
	if a.IsConst != b.IsConst {
		return false
	}
	if a.IsConst {
		return sqltypes.Identical(a.Const, b.Const)
	}
	return a.Name == b.Name
}

// PredKind classifies the predicate of an atom.
type PredKind uint8

// Predicate kinds: base tables, insertion/deletion event tables (ι/δ in the
// paper), and derived predicates defined by rules.
const (
	PredBase PredKind = iota
	PredIns
	PredDel
	PredDerived
)

// Atom is a predicate applied to terms. Slot is a translation-time instance
// identifier (each FROM item gets a unique slot); it is informational after
// translation.
type Atom struct {
	Kind PredKind
	Name string
	Args []Term
	Slot int
}

// PredString returns the predicate name with its event marker (ι/δ).
func (a Atom) PredString() string {
	switch a.Kind {
	case PredIns:
		return "ins " + a.Name
	case PredDel:
		return "del " + a.Name
	}
	return a.Name
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.PredString() + "(" + strings.Join(parts, ",") + ")"
}

// CloneAtom deep-copies the atom.
func (a Atom) CloneAtom() Atom {
	out := a
	out.Args = append([]Term(nil), a.Args...)
	return out
}

// Literal is a possibly negated atom.
type Literal struct {
	Atom Atom
	Neg  bool
}

// String renders the literal.
func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Clone deep-copies the literal.
func (l Literal) Clone() Literal {
	return Literal{Atom: l.Atom.CloneAtom(), Neg: l.Neg}
}

// CmpOp is a builtin comparison operator.
type CmpOp uint8

// Builtin operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpIsNull    // unary: R unused
	CmpIsNotNull // unary: R unused
)

// String returns the SQL spelling.
func (op CmpOp) String() string {
	switch {
	case op == CmpIsNull:
		return "IS NULL"
	case op == CmpIsNotNull:
		return "IS NOT NULL"
	case int(op) < len(sqlOps):
		return sqlOps[op].String()
	}
	return "?"
}

// Unary reports whether the operator is a null test, which has no right
// operand.
func (op CmpOp) Unary() bool { return op == CmpIsNull || op == CmpIsNotNull }

// Negate returns the complementary operator.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	case CmpIsNull:
		return CmpIsNotNull
	case CmpIsNotNull:
		return CmpIsNull
	}
	return op
}

// Builtin is a comparison between terms.
type Builtin struct {
	Op   CmpOp
	L, R Term
}

// String renders the builtin.
func (b Builtin) String() string {
	if b.Op.Unary() {
		return b.L.String() + " " + b.Op.String()
	}
	return b.L.String() + " " + b.Op.String() + " " + b.R.String()
}

// Body is a conjunction of literals, builtins and aggregate conditions.
type Body struct {
	Lits     []Literal
	Builtins []Builtin
	Aggs     []AggCond
}

// String renders the body as "l1 and l2 and b1".
func (b Body) String() string {
	parts := make([]string, 0, len(b.Lits)+len(b.Builtins)+len(b.Aggs))
	for _, l := range b.Lits {
		parts = append(parts, l.String())
	}
	for _, bi := range b.Builtins {
		parts = append(parts, bi.String())
	}
	for _, a := range b.Aggs {
		parts = append(parts, a.String())
	}
	return strings.Join(parts, " and ")
}

// Clone deep-copies the body.
func (b Body) Clone() Body {
	out := Body{
		Lits:     make([]Literal, len(b.Lits)),
		Builtins: append([]Builtin(nil), b.Builtins...),
		Aggs:     make([]AggCond, len(b.Aggs)),
	}
	for i, l := range b.Lits {
		out.Lits[i] = l.Clone()
	}
	for i, a := range b.Aggs {
		out.Aggs[i] = a.Clone()
	}
	return out
}

// Substitute replaces every occurrence of variable name with t, in place.
func (b *Body) Substitute(name string, t Term) {
	sub := func(x *Term) {
		if !x.IsConst && x.Name == name {
			*x = t
		}
	}
	for i := range b.Lits {
		for j := range b.Lits[i].Atom.Args {
			sub(&b.Lits[i].Atom.Args[j])
		}
	}
	for i := range b.Builtins {
		sub(&b.Builtins[i].L)
		sub(&b.Builtins[i].R)
	}
	for i := range b.Aggs {
		b.Aggs[i].substitute(name, t)
	}
}

// PositiveVars returns the set of variables occurring in positive literals.
func (b Body) PositiveVars() map[string]bool {
	out := map[string]bool{}
	for _, l := range b.Lits {
		if l.Neg {
			continue
		}
		for _, t := range l.Atom.Args {
			if !t.IsConst {
				out[t.Name] = true
			}
		}
	}
	return out
}

// Vars returns every variable occurring anywhere in the body, sorted.
func (b Body) Vars() []string {
	set := map[string]bool{}
	for _, l := range b.Lits {
		for _, t := range l.Atom.Args {
			if !t.IsConst {
				set[t.Name] = true
			}
		}
	}
	for _, bi := range b.Builtins {
		if !bi.L.IsConst {
			set[bi.L.Name] = true
		}
		if !bi.Op.Unary() && !bi.R.IsConst {
			set[bi.R.Name] = true
		}
	}
	for _, a := range b.Aggs {
		a.vars(set)
	}
	delete(set, "")
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Merge appends other's literals, builtins and aggregate conditions to b.
func (b *Body) Merge(other Body) {
	b.Lits = append(b.Lits, other.Lits...)
	b.Builtins = append(b.Builtins, other.Builtins...)
	b.Aggs = append(b.Aggs, other.Aggs...)
}

// Rule defines one disjunct of a derived predicate: Head ← Body.
type Rule struct {
	Head Atom
	Body Body
}

// String renders the rule.
func (r Rule) String() string { return r.Head.String() + " <- " + r.Body.String() }

// Instantiate returns the rule's body inlined at a call d(args): each head
// formal replaced by its argument and every other variable renamed through
// fresh, which must return a name used nowhere in the rule or at the call
// site. It is capture-safe because of the order of its three steps: each
// formal first moves to a fresh placeholder (fresh("T$")), then every
// variable that is not a placeholder is renamed fresh (fresh("L$"), in
// sorted order), and only then do the arguments replace the placeholders.
// No argument enters the body while an original name remains in it, so a
// call argument named like a rule local stays distinct from it.
func (r Rule) Instantiate(args []Term, fresh func(prefix string) string) (Body, error) {
	if len(args) != len(r.Head.Args) {
		return Body{}, fmt.Errorf("logic: derived predicate %s called with %d args, rules have %d",
			r.Head.Name, len(args), len(r.Head.Args))
	}
	body := r.Body.Clone()
	holders := make([]string, len(args))
	isHolder := map[string]bool{}
	for i, f := range r.Head.Args {
		if f.IsConst {
			continue
		}
		holders[i] = fresh("T$")
		isHolder[holders[i]] = true
		body.Substitute(f.Name, Var(holders[i]))
	}
	for _, v := range body.Vars() {
		if !isHolder[v] {
			body.Substitute(v, Var(fresh("L$")))
		}
	}
	for i, h := range holders {
		if h != "" {
			body.Substitute(h, args[i])
		}
	}
	return body, nil
}

// Denial is a condition that must never hold: Body → ⊥.
type Denial struct {
	Name string
	Body Body
}

// String renders the denial.
func (d Denial) String() string { return d.Body.String() + " -> false" }

// Translation is the result of rewriting one SQL assertion.
type Translation struct {
	Assertion string
	Denials   []Denial
	// Rules defines the derived predicates referenced by the denials,
	// keyed by predicate name; DerivedOrder preserves creation order.
	Rules        map[string][]Rule
	DerivedOrder []string
}

// AddRule registers a rule for a derived predicate.
func (tr *Translation) AddRule(r Rule) {
	if tr.Rules == nil {
		tr.Rules = make(map[string][]Rule)
	}
	if _, seen := tr.Rules[r.Head.Name]; !seen {
		tr.DerivedOrder = append(tr.DerivedOrder, r.Head.Name)
	}
	tr.Rules[r.Head.Name] = append(tr.Rules[r.Head.Name], r)
}

// String renders denials and rules for debugging and golden tests.
func (tr *Translation) String() string {
	var b strings.Builder
	for _, d := range tr.Denials {
		fmt.Fprintln(&b, d.String())
	}
	for _, name := range tr.DerivedOrder {
		for _, r := range tr.Rules[name] {
			fmt.Fprintln(&b, r.String())
		}
	}
	return b.String()
}

package edc

import (
	"fmt"

	"tintin/internal/logic"
)

// maxDerivedDepth bounds recursion through nested derived predicates.
const maxDerivedDepth = 8

// negativeDerivedOptions handles a negated derived literal ¬d(ȳ) — a
// complex NOT EXISTS subquery. In the new state the condition is ¬d_n(ȳ);
// the alternatives are:
//
//	OLD:   ¬d_n(ȳ)                      (no event from this literal)
//	EVENT: <falsifier of d> ∧ ¬d_n(ȳ)   (an event destroyed a derivation)
//
// where the falsifier alternatives are, per Olivé's event rules, one per
// (rule, literal) pair: the literal's deletion/insertion event joined with
// the rest of the rule evaluated in the old state. The ¬d_n(ȳ) conjunct
// carries soundness; the falsifiers only provide the incremental trigger.
func (g *generator) negativeDerivedOptions(lit logic.Literal) ([]option, error) {
	name := lit.Atom.Name
	rules, ok := g.set.Rules[name]
	if !ok {
		return nil, fmt.Errorf("edc: internal: no rules for derived predicate %s", name)
	}
	newName, err := g.ensureNewState(name)
	if err != nil {
		return nil, err
	}
	negNew := logic.Literal{
		Atom: logic.Atom{Kind: logic.PredDerived, Name: newName, Args: append([]logic.Term(nil), lit.Atom.Args...)},
		Neg:  true,
	}
	opts := []option{{conjuncts: logic.Body{Lits: []logic.Literal{negNew.Clone()}}}}

	falsifiers, err := g.falsifierBodies(rules, lit.Atom.Args, 0)
	if err != nil {
		return nil, err
	}
	for _, fb := range falsifiers {
		b := fb.Clone()
		b.Lits = append(b.Lits, negNew.Clone())
		opts = append(opts, option{event: true, conjuncts: b})
	}
	return opts, nil
}

// falsifierBodies returns, for the derived predicate defined by rules and
// called with args, the event conjunctions that can destroy a derivation:
// for each rule and each literal of the rule, the literal's falsifying
// event joined with the rest of the rule in the old state.
func (g *generator) falsifierBodies(rules []logic.Rule, args []logic.Term, depth int) ([]logic.Body, error) {
	if depth > maxDerivedDepth {
		return nil, fmt.Errorf("edc: derived predicates nest deeper than %d", maxDerivedDepth)
	}
	var out []logic.Body
	for _, r := range rules {
		body, err := r.Instantiate(args, g.fresh)
		if err != nil {
			return nil, err
		}
		for i, target := range body.Lits {
			rest := logic.Body{Builtins: append([]logic.Builtin(nil), body.Builtins...)}
			for j, l := range body.Lits {
				if j != i {
					rest.Lits = append(rest.Lits, l.Clone())
				}
			}
			events, err := g.falsifyingEvents(target, depth)
			if err != nil {
				return nil, err
			}
			for _, ev := range events {
				b := ev.Clone()
				b.Merge(rest.Clone())
				out = append(out, b)
				if len(out) > maxEDCs {
					return nil, fmt.Errorf("edc: falsifier expansion exceeds %d alternatives", maxEDCs)
				}
			}
		}
	}
	return out, nil
}

// falsifyingEvents returns the event conjunctions under which one literal
// that held in D stops holding in Dn.
func (g *generator) falsifyingEvents(l logic.Literal, depth int) ([]logic.Body, error) {
	switch {
	case l.Atom.Kind == logic.PredBase && !l.Neg:
		del := l.Atom.CloneAtom()
		del.Kind = logic.PredDel
		return []logic.Body{{Lits: []logic.Literal{{Atom: del}}}}, nil
	case l.Atom.Kind == logic.PredBase && l.Neg:
		ins := l.Atom.CloneAtom()
		ins.Kind = logic.PredIns
		return []logic.Body{{Lits: []logic.Literal{{Atom: ins}}}}, nil
	case l.Atom.Kind == logic.PredDerived && !l.Neg:
		return g.falsifierBodies(g.set.Rules[l.Atom.Name], l.Atom.Args, depth+1)
	case l.Atom.Kind == logic.PredDerived && l.Neg:
		return g.satisfierBodies(g.set.Rules[l.Atom.Name], l.Atom.Args, depth+1)
	}
	return nil, fmt.Errorf("edc: internal: cannot falsify literal %s", l)
}

// satisfierBodies returns the event conjunctions under which the derived
// predicate (called with args) can become true in Dn: for each rule and each
// literal, the literal's satisfying event joined with the rest of the rule
// evaluated in the NEW state.
func (g *generator) satisfierBodies(rules []logic.Rule, args []logic.Term, depth int) ([]logic.Body, error) {
	if depth > maxDerivedDepth {
		return nil, fmt.Errorf("edc: derived predicates nest deeper than %d", maxDerivedDepth)
	}
	var out []logic.Body
	for _, r := range rules {
		body, err := r.Instantiate(args, g.fresh)
		if err != nil {
			return nil, err
		}
		for i, target := range body.Lits {
			rest := logic.Body{Builtins: append([]logic.Builtin(nil), body.Builtins...)}
			for j, l := range body.Lits {
				if j != i {
					rest.Lits = append(rest.Lits, l.Clone())
				}
			}
			restNew, err := g.newStateBodies(rest, depth)
			if err != nil {
				return nil, err
			}
			events, err := g.satisfyingEvents(target, depth)
			if err != nil {
				return nil, err
			}
			for _, ev := range events {
				for _, rn := range restNew {
					b := ev.Clone()
					b.Merge(rn.Clone())
					out = append(out, b)
					if len(out) > maxEDCs {
						return nil, fmt.Errorf("edc: satisfier expansion exceeds %d alternatives", maxEDCs)
					}
				}
			}
		}
	}
	return out, nil
}

// satisfyingEvents returns the event conjunctions under which one literal
// that was false in D can hold in Dn.
func (g *generator) satisfyingEvents(l logic.Literal, depth int) ([]logic.Body, error) {
	switch {
	case l.Atom.Kind == logic.PredBase && !l.Neg:
		ins := l.Atom.CloneAtom()
		ins.Kind = logic.PredIns
		return []logic.Body{{Lits: []logic.Literal{{Atom: ins}}}}, nil
	case l.Atom.Kind == logic.PredBase && l.Neg:
		del := l.Atom.CloneAtom()
		del.Kind = logic.PredDel
		return []logic.Body{{Lits: []logic.Literal{{Atom: del}}}}, nil
	case l.Atom.Kind == logic.PredDerived && !l.Neg:
		return g.satisfierBodies(g.set.Rules[l.Atom.Name], l.Atom.Args, depth+1)
	case l.Atom.Kind == logic.PredDerived && l.Neg:
		return g.falsifierBodies(g.set.Rules[l.Atom.Name], l.Atom.Args, depth+1)
	}
	return nil, fmt.Errorf("edc: internal: cannot satisfy literal %s", l)
}

// ensureNewState registers (once) the new-state version d_n of a derived
// predicate: its rules are the old rules with every literal rewritten to
// its Dn evaluation.
func (g *generator) ensureNewState(name string) (string, error) {
	newName := "new$" + name
	if g.set.hasRule(newName) {
		return newName, nil
	}
	rules := g.set.Rules[name]
	if rules == nil {
		return "", fmt.Errorf("edc: internal: no rules for derived predicate %s", name)
	}
	// Reserve the name first to terminate on (unsupported) recursive rules.
	g.set.Rules[newName] = nil
	g.set.RuleOrder = append(g.set.RuleOrder, newName)
	for _, r := range rules {
		newBodies, err := g.newStateBodies(r.Body, 0)
		if err != nil {
			return "", err
		}
		head := r.Head.CloneAtom()
		head.Name = newName
		for _, nb := range newBodies {
			g.set.Rules[newName] = append(g.set.Rules[newName], logic.Rule{Head: head.CloneAtom(), Body: nb})
		}
	}
	return newName, nil
}

// newStateBodies rewrites a conjunctive body to its evaluation in Dn,
// expanding the per-literal disjunctions of substitution (2) into separate
// bodies and using alive$/new$ auxiliaries for negated literals.
func (g *generator) newStateBodies(b logic.Body, depth int) ([]logic.Body, error) {
	if depth > maxDerivedDepth {
		return nil, fmt.Errorf("edc: derived predicates nest deeper than %d", maxDerivedDepth)
	}
	bodies := []logic.Body{{Builtins: append([]logic.Builtin(nil), b.Builtins...)}}
	for _, l := range b.Lits {
		var alts [][]logic.Literal
		switch {
		case l.Atom.Kind == logic.PredBase && !l.Neg:
			ins := l.Atom.CloneAtom()
			ins.Kind = logic.PredIns
			del := l.Atom.CloneAtom()
			del.Kind = logic.PredDel
			alts = [][]logic.Literal{
				{{Atom: ins}},
				{{Atom: l.Atom.CloneAtom()}, {Atom: del, Neg: true}},
			}
		case l.Atom.Kind == logic.PredBase && l.Neg:
			// ¬p_n(x̄) with possible locals: ¬ιp(x̄) ∧ ¬alive$p(x̄).
			ins := l.Atom.CloneAtom()
			ins.Kind = logic.PredIns
			aliveName := g.ensureAlive(l.Atom.Name)
			alive := l.Atom.CloneAtom()
			alive.Kind = logic.PredDerived
			alive.Name = aliveName
			alts = [][]logic.Literal{
				{{Atom: ins, Neg: true}, {Atom: alive, Neg: true}},
			}
		case l.Atom.Kind == logic.PredDerived:
			nn, err := g.ensureNewState(l.Atom.Name)
			if err != nil {
				return nil, err
			}
			a := l.Atom.CloneAtom()
			a.Name = nn
			alts = [][]logic.Literal{{{Atom: a, Neg: l.Neg}}}
		default:
			return nil, fmt.Errorf("edc: internal: event literal %s inside derived rule", l)
		}
		var next []logic.Body
		for _, cur := range bodies {
			for _, alt := range alts {
				nb := cur.Clone()
				for _, al := range alt {
					nb.Lits = append(nb.Lits, al.Clone())
				}
				next = append(next, nb)
			}
		}
		bodies = next
		if len(bodies) > maxEDCs {
			return nil, fmt.Errorf("edc: new-state expansion exceeds %d bodies", maxEDCs)
		}
	}
	return bodies, nil
}

// ensureAlive registers (once) the per-table predicate
// alive$T(x̄) ← T(x̄) ∧ ¬δT(x̄): the tuples of T surviving the update.
func (g *generator) ensureAlive(table string) string {
	name := "alive$" + table
	if g.set.hasRule(name) {
		return name
	}
	cols, ok := g.info.TableColumns(table)
	if !ok {
		cols = nil
	}
	args := make([]logic.Term, len(cols))
	for i := range cols {
		args[i] = logic.Var(fmt.Sprintf("A%d", i+1))
	}
	head := logic.Atom{Kind: logic.PredDerived, Name: name, Args: args}
	base := logic.Atom{Kind: logic.PredBase, Name: table, Args: append([]logic.Term(nil), args...)}
	del := logic.Atom{Kind: logic.PredDel, Name: table, Args: append([]logic.Term(nil), args...)}
	g.set.addRule(logic.Rule{Head: head, Body: logic.Body{
		Lits: []logic.Literal{{Atom: base}, {Atom: del, Neg: true}},
	}})
	return name
}

// Package edc generates Event Dependency Constraints (§2 step 2 of the
// paper): logic rules identifying exactly the situations in which a set of
// insertion/deletion events applied to a consistent database violates an
// assertion.
//
// Each base literal of a denial is replaced by its evaluation in the new
// database state Dn, following the paper's substitution rules:
//
//	(2)  p_n(x̄)  ⟺  ιp(x̄) ∨ (p(x̄) ∧ ¬δp(x̄))
//	(3) ¬p_n(x̄)  ⟺  δp(x̄) ∨ (¬p(x̄) ∧ ¬ιp(x̄))
//
// Distributing the disjunctions yields 2^n conjunctive combinations; the
// all-old combination is the original denial (satisfied in D by assumption)
// and is discarded, leaving the EDCs. Negated literals with existentially
// quantified local variables additionally require an auxiliary new-state
// predicate (the paper's aux), and negated derived literals (complex NOT
// EXISTS subqueries) get a new-state version of their rules plus
// Olivé-style event triggers.
package edc

import (
	"fmt"
	"sort"
	"strings"

	"tintin/internal/logic"
	"tintin/internal/storage"
)

// FK mirrors a declared foreign key for the semantic optimizer.
type FK struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// SchemaInfo supplies the table metadata the generator needs.
type SchemaInfo interface {
	logic.Catalog
	// PrimaryKey returns the primary-key columns of a base table (nil when
	// the table has no declared key).
	PrimaryKey(table string) []string
	// ForeignKeys returns the foreign keys declared on a base table.
	ForeignKeys(table string) []FK
}

// Options toggles the semantic optimizations (the E4 ablations).
type Options struct {
	// FKOptimization discards EDCs that join fresh-key insertions with
	// deletions referencing them through a declared foreign key — the
	// argument that removes the paper's EDC 5.
	FKOptimization bool
	// Subsumption drops EDCs whose conjunct set is a superset of another
	// EDC's (the smaller EDC fires whenever the larger would).
	Subsumption bool
}

// DefaultOptions enables every optimization, matching the paper's tool.
func DefaultOptions() Options {
	return Options{FKOptimization: true, Subsumption: true}
}

// EDC is one event dependency constraint, ready for SQL generation.
type EDC struct {
	Name string
	// Denial is the name of the denial this EDC was derived from.
	Denial string
	Body   logic.Body
	// Triggers lists the event tables (ins_T / del_T) whose non-emptiness
	// can make this EDC fire; safeCommit skips the EDC when all are empty.
	Triggers []string
}

// String renders the EDC as a rule.
func (e EDC) String() string { return e.Body.String() + " -> false" }

// Set is the full EDC translation of one assertion.
type Set struct {
	Assertion string
	EDCs      []EDC
	// Rules defines every derived predicate referenced from EDC bodies
	// (subquery predicates, aux new-state predicates, alive predicates).
	Rules     map[string][]logic.Rule
	RuleOrder []string
	// Discarded records EDCs removed by semantic optimizations, with the
	// reason — surfaced by the CLI and the E4 ablation.
	Discarded []DiscardedEDC
}

// DiscardedEDC records one optimizer removal.
type DiscardedEDC struct {
	EDC    EDC
	Reason string
}

// Triggers returns the union of the event tables that can fire any EDC in
// the set, sorted — the assertion's whole event footprint. safeCommit skips
// the assertion outright when every one of them is empty.
func (s *Set) Triggers() []string {
	set := map[string]bool{}
	for _, e := range s.EDCs {
		for _, tr := range e.Triggers {
			set[tr] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (s *Set) addRule(r logic.Rule) {
	if s.Rules == nil {
		s.Rules = make(map[string][]logic.Rule)
	}
	if _, seen := s.Rules[r.Head.Name]; !seen {
		s.RuleOrder = append(s.RuleOrder, r.Head.Name)
	}
	s.Rules[r.Head.Name] = append(s.Rules[r.Head.Name], r)
}

func (s *Set) hasRule(name string) bool {
	_, ok := s.Rules[name]
	return ok
}

// maxEDCs bounds the expansion of one assertion.
const maxEDCs = 256

// generator carries the per-assertion generation state.
type generator struct {
	info    SchemaInfo
	opts    Options
	set     *Set
	src     *logic.Translation
	freshID int
	depth   int
}

// Generate derives the EDC set for a translated assertion.
func Generate(tr *logic.Translation, info SchemaInfo, opts Options) (*Set, error) {
	g := &generator{
		info: info,
		opts: opts,
		set:  &Set{Assertion: tr.Assertion},
		src:  tr,
	}
	// Carry over the translation's derived predicates (subquery rules).
	for _, name := range tr.DerivedOrder {
		for _, r := range tr.Rules[name] {
			g.set.addRule(r)
		}
	}
	for _, d := range tr.Denials {
		if err := g.denialEDCs(d); err != nil {
			return nil, fmt.Errorf("assertion %s: %w", tr.Assertion, err)
		}
	}
	if opts.Subsumption {
		g.subsume()
	}
	if opts.FKOptimization {
		g.fkDiscard()
	}
	// Re-number after discards for stable view names.
	return g.set, nil
}

func (g *generator) fresh(prefix string) string {
	g.freshID++
	return fmt.Sprintf("%s%d", prefix, g.freshID)
}

// option is one way a denial literal can be satisfied in the new state:
// a set of conjuncts, flagged as event-carrying or not.
type option struct {
	conjuncts logic.Body
	event     bool
}

func (g *generator) denialEDCs(d logic.Denial) error {
	bound := d.Body.PositiveVars()
	// Per-conjunct alternatives: one option list per literal and per
	// aggregate condition.
	alts := make([][]option, 0, len(d.Body.Lits)+len(d.Body.Aggs))
	for _, lit := range d.Body.Lits {
		opts, err := g.literalOptions(d, lit, bound)
		if err != nil {
			return err
		}
		alts = append(alts, opts)
	}
	for _, agg := range d.Body.Aggs {
		opts, err := g.aggOptions(agg)
		if err != nil {
			return err
		}
		alts = append(alts, opts)
	}
	var bodies []logic.Body
	var build func(i int, cur logic.Body, hasEvent bool)
	build = func(i int, cur logic.Body, hasEvent bool) {
		if len(bodies) > maxEDCs {
			return
		}
		if i == len(alts) {
			if !hasEvent {
				return // the all-old combination is the original denial
			}
			final := cur.Clone()
			final.Builtins = append(final.Builtins, d.Body.Builtins...)
			bodies = append(bodies, final)
			return
		}
		for _, opt := range alts[i] {
			next := cur.Clone()
			next.Merge(opt.conjuncts)
			build(i+1, next, hasEvent || opt.event)
		}
	}
	build(0, logic.Body{}, false)
	if len(bodies) > maxEDCs {
		return fmt.Errorf("edc: denial %s expands to more than %d EDCs", d.Name, maxEDCs)
	}
	for _, b := range bodies {
		sortEDCBody(&b)
		g.set.EDCs = append(g.set.EDCs, EDC{
			Name:     fmt.Sprintf("%s_edc%d", d.Name, len(g.set.EDCs)+1),
			Denial:   d.Name,
			Body:     b,
			Triggers: triggersOf(b, g.set.Rules),
		})
	}
	return nil
}

// sortEDCBody orders conjuncts for efficient evaluation: positive event
// literals first (they root the FROM clause at the small event tables),
// then positive base literals, then negations.
func sortEDCBody(b *logic.Body) {
	rank := func(l logic.Literal) int {
		switch {
		case !l.Neg && (l.Atom.Kind == logic.PredIns || l.Atom.Kind == logic.PredDel):
			return 0
		case !l.Neg && l.Atom.Kind == logic.PredBase:
			return 1
		case !l.Neg:
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(b.Lits, func(i, j int) bool { return rank(b.Lits[i]) < rank(b.Lits[j]) })
}

// triggersOf collects the event tables appearing positively in the body,
// including (recursively) those inside positive derived literals.
func triggersOf(b logic.Body, rules map[string][]logic.Rule) []string {
	set := map[string]bool{}
	var visit func(b logic.Body, seen map[string]bool)
	visit = func(b logic.Body, seen map[string]bool) {
		for _, l := range b.Lits {
			if l.Neg {
				continue
			}
			switch l.Atom.Kind {
			case logic.PredIns:
				set[storage.InsTable(l.Atom.Name)] = true
			case logic.PredDel:
				set[storage.DelTable(l.Atom.Name)] = true
			case logic.PredDerived:
				if !seen[l.Atom.Name] {
					seen[l.Atom.Name] = true
					for _, r := range rules[l.Atom.Name] {
						visit(r.Body, seen)
					}
				}
			}
		}
	}
	visit(b, map[string]bool{})
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// literalOptions returns the new-state alternatives for one denial literal.
func (g *generator) literalOptions(d logic.Denial, lit logic.Literal, bound map[string]bool) ([]option, error) {
	switch {
	case lit.Atom.Kind == logic.PredBase && !lit.Neg:
		// (2): ιp(x̄)  or  p(x̄) ∧ ¬δp(x̄)
		ins := lit.Atom.CloneAtom()
		ins.Kind = logic.PredIns
		del := lit.Atom.CloneAtom()
		del.Kind = logic.PredDel
		return []option{
			{event: true, conjuncts: logic.Body{Lits: []logic.Literal{{Atom: ins}}}},
			{conjuncts: logic.Body{Lits: []logic.Literal{
				{Atom: lit.Atom.CloneAtom()},
				{Atom: del, Neg: true},
			}}},
		}, nil

	case lit.Atom.Kind == logic.PredBase && lit.Neg:
		return g.negativeBaseOptions(d, lit, bound)

	case lit.Atom.Kind == logic.PredDerived && lit.Neg:
		return g.negativeDerivedOptions(lit)

	case lit.Atom.Kind == logic.PredDerived && !lit.Neg:
		// Positive derived literals are inlined by the translator; reaching
		// one here would mean an internal inconsistency.
		return nil, fmt.Errorf("edc: internal: positive derived literal %s in denial body", lit)
	}
	return nil, fmt.Errorf("edc: internal: event literal %s in denial body", lit)
}

// negativeBaseOptions implements substitution (3) for ¬p(x̄).
func (g *generator) negativeBaseOptions(d logic.Denial, lit logic.Literal, bound map[string]bool) ([]option, error) {
	atom := lit.Atom
	// OLD: ¬p(x̄) ∧ ¬ιp(x̄).
	insNeg := atom.CloneAtom()
	insNeg.Kind = logic.PredIns
	old := option{conjuncts: logic.Body{Lits: []logic.Literal{
		{Atom: atom.CloneAtom(), Neg: true},
		{Atom: insNeg, Neg: true},
	}}}

	// EVENT: δp(x̄), plus ¬aux(ȳ) when x̄ has local (existential) variables —
	// deleting one matching tuple only violates the denial if no other
	// tuple satisfies p in the new state.
	delAtom := atom.CloneAtom()
	delAtom.Kind = logic.PredDel
	event := option{event: true, conjuncts: logic.Body{Lits: []logic.Literal{{Atom: delAtom}}}}

	hasLocals := false
	var boundTerms []logic.Term
	seenVar := map[string]bool{}
	for _, t := range atom.Args {
		if t.IsConst {
			continue
		}
		if bound[t.Name] {
			if !seenVar[t.Name] {
				seenVar[t.Name] = true
				boundTerms = append(boundTerms, t)
			}
		} else {
			hasLocals = true
		}
	}
	// Without locals δp(x̄) alone implies ¬p_n(x̄): safeCommit normalizes
	// the events, so ins_T and del_T never hold the same tuple.
	if hasLocals {
		auxName := g.ensureAux(d.Name, atom, boundTerms)
		auxAtom := logic.Atom{Kind: logic.PredDerived, Name: auxName, Args: boundTerms}
		event.conjuncts.Lits = append(event.conjuncts.Lits, logic.Literal{Atom: auxAtom, Neg: true})
	}
	return []option{event, old}, nil
}

// ensureAux registers the paper's aux predicate for a negated base atom:
// the new-state existence of a p-tuple matching the bound arguments:
//
//	aux(ȳ) ← ιp(x̄)
//	aux(ȳ) ← p(x̄) ∧ ¬δp(x̄)
func (g *generator) ensureAux(denial string, atom logic.Atom, boundTerms []logic.Term) string {
	// Key the aux on the denial, table and argument shape so identical
	// negated literals share one predicate.
	name := fmt.Sprintf("aux$%s$%s", strings.ToLower(denial), atomSignature(atom))
	if g.set.hasRule(name) {
		return name
	}
	head := logic.Atom{Kind: logic.PredDerived, Name: name, Args: boundTerms}

	ins := atom.CloneAtom()
	ins.Kind = logic.PredIns
	g.set.addRule(logic.Rule{Head: head.CloneAtom(), Body: logic.Body{
		Lits: []logic.Literal{{Atom: ins}},
	}})
	alive := atom.CloneAtom()
	del := atom.CloneAtom()
	del.Kind = logic.PredDel
	g.set.addRule(logic.Rule{Head: head.CloneAtom(), Body: logic.Body{
		Lits: []logic.Literal{{Atom: alive}, {Atom: del, Neg: true}},
	}})
	return name
}

func atomSignature(a logic.Atom) string {
	parts := make([]string, 0, len(a.Args)+1)
	parts = append(parts, a.Name)
	for _, t := range a.Args {
		parts = append(parts, t.String())
	}
	return strings.ToLower(strings.Join(parts, "_"))
}

package edc

import (
	"sort"
	"strings"
	"testing"

	"tintin/internal/logic"
	"tintin/internal/sqlparser"
)

// fakeInfo implements SchemaInfo over the running-example schema.
type fakeInfo struct{}

func (fakeInfo) TableColumns(name string) ([]string, bool) {
	switch strings.ToLower(name) {
	case "orders":
		return []string{"o_orderkey", "o_totalprice"}, true
	case "lineitem":
		return []string{"l_orderkey", "l_linenumber", "l_quantity"}, true
	case "customer":
		return []string{"c_custkey", "c_nationkey"}, true
	case "nation":
		return []string{"n_nationkey", "n_regionkey"}, true
	}
	return nil, false
}

func (fakeInfo) PrimaryKey(name string) []string {
	switch strings.ToLower(name) {
	case "orders":
		return []string{"o_orderkey"}
	case "lineitem":
		return []string{"l_orderkey", "l_linenumber"}
	case "customer":
		return []string{"c_custkey"}
	case "nation":
		return []string{"n_nationkey"}
	}
	return nil
}

func (fakeInfo) ForeignKeys(name string) []FK {
	switch strings.ToLower(name) {
	case "lineitem":
		return []FK{{Columns: []string{"l_orderkey"}, RefTable: "orders", RefColumns: []string{"o_orderkey"}}}
	case "customer":
		return []FK{{Columns: []string{"c_nationkey"}, RefTable: "nation", RefColumns: []string{"n_nationkey"}}}
	}
	return nil
}

func generate(t *testing.T, name, checkSQL string, opts Options) *Set {
	t.Helper()
	st, err := sqlparser.Parse("CREATE ASSERTION " + name + " CHECK (" + checkSQL + ")")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr, err := logic.Translate(name, st.(*sqlparser.CreateAssertion).Check, fakeInfo{})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	set, err := Generate(tr, fakeInfo{}, opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return set
}

const atLeastOneLineItem = `NOT EXISTS (
	SELECT * FROM orders AS o
	WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey))`

// signature classifies an EDC body by its positive event / base atoms and
// its negations, ignoring variable names.
func signature(e EDC) string {
	var parts []string
	for _, l := range e.Body.Lits {
		s := l.Atom.PredString()
		if strings.HasPrefix(l.Atom.Name, "aux$") {
			s = "aux"
		}
		if strings.HasPrefix(l.Atom.Name, "new$") {
			s = "new"
		}
		if l.Neg {
			s = "not " + s
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, " & ")
}

func TestRunningExamplePaperEDCs(t *testing.T) {
	// Without semantic optimizations we must get exactly the paper's EDCs
	// (4), (5) and (6).
	set := generate(t, "atLeastOneLineItem", atLeastOneLineItem,
		Options{})
	if len(set.EDCs) != 3 {
		t.Fatalf("EDC count = %d, want 3:\n%s", len(set.EDCs), dump(set))
	}
	want := map[string]bool{
		// EDC 4: ιorder(o) ∧ ¬lineIt(l,o) ∧ ¬ιlineIt(l,o)
		"ins orders & not ins lineitem & not lineitem": true,
		// EDC 5: ιorder(o) ∧ δlineIt(l,o) ∧ ¬aux(o)
		"del lineitem & ins orders & not aux": true,
		// EDC 6: order(o) ∧ ¬δorder(o) ∧ δlineIt(l,o) ∧ ¬aux(o)
		"del lineitem & not aux & not del orders & orders": true,
	}
	for _, e := range set.EDCs {
		if !want[signature(e)] {
			t.Errorf("unexpected EDC %s: %s (sig %q)", e.Name, e, signature(e))
		}
		delete(want, signature(e))
	}
	for sig := range want {
		t.Errorf("missing EDC with signature %q", sig)
	}
}

func TestRunningExampleAuxRules(t *testing.T) {
	set := generate(t, "atLeastOneLineItem", atLeastOneLineItem,
		Options{})
	var auxName string
	for name := range set.Rules {
		if strings.HasPrefix(name, "aux$") {
			auxName = name
		}
	}
	if auxName == "" {
		t.Fatalf("no aux predicate registered:\n%s", dump(set))
	}
	rules := set.Rules[auxName]
	if len(rules) != 2 {
		t.Fatalf("aux rules = %d, want 2 (ι-rule and alive-rule)", len(rules))
	}
	// aux(o) ← ιlineIt(l,o)  and  aux(o) ← lineIt(l,o) ∧ ¬δlineIt(l,o)
	var sawIns, sawAlive bool
	for _, r := range rules {
		if len(r.Head.Args) != 1 {
			t.Errorf("aux head arity = %d, want 1 (the bound order key)", len(r.Head.Args))
		}
		switch {
		case len(r.Body.Lits) == 1 && r.Body.Lits[0].Atom.Kind == logic.PredIns:
			sawIns = true
		case len(r.Body.Lits) == 2 && r.Body.Lits[0].Atom.Kind == logic.PredBase &&
			r.Body.Lits[1].Neg && r.Body.Lits[1].Atom.Kind == logic.PredDel:
			sawAlive = true
		}
	}
	if !sawIns || !sawAlive {
		t.Errorf("aux rules do not match the paper's:\n%s", dump(set))
	}
}

func TestFKOptimizationDiscardsEDC5(t *testing.T) {
	set := generate(t, "atLeastOneLineItem", atLeastOneLineItem,
		Options{FKOptimization: true})
	if len(set.EDCs) != 2 {
		t.Fatalf("EDC count with FK opt = %d, want 2:\n%s", len(set.EDCs), dump(set))
	}
	for _, e := range set.EDCs {
		if sig := signature(e); sig == "del lineitem & ins orders & not aux" {
			t.Errorf("EDC 5 survived the FK optimization: %s", e)
		}
	}
	if len(set.Discarded) != 1 || !strings.Contains(set.Discarded[0].Reason, "FK") {
		t.Errorf("discard record wrong: %+v", set.Discarded)
	}
}

func TestTriggersListed(t *testing.T) {
	set := generate(t, "atLeastOneLineItem", atLeastOneLineItem,
		Options{})
	byName := map[string][]string{}
	for _, e := range set.EDCs {
		byName[signature(e)] = e.Triggers
	}
	if got := byName["ins orders & not ins lineitem & not lineitem"]; len(got) != 1 || got[0] != "ins_orders" {
		t.Errorf("EDC4 triggers = %v, want [ins_orders]", got)
	}
	if got := byName["del lineitem & not aux & not del orders & orders"]; len(got) != 1 || got[0] != "del_lineitem" {
		t.Errorf("EDC6 triggers = %v, want [del_lineitem]", got)
	}
}

func TestEventLiteralsComeFirst(t *testing.T) {
	set := generate(t, "atLeastOneLineItem", atLeastOneLineItem, DefaultOptions())
	for _, e := range set.EDCs {
		first := e.Body.Lits[0]
		if first.Neg || (first.Atom.Kind != logic.PredIns && first.Atom.Kind != logic.PredDel) {
			t.Errorf("EDC %s does not start with a positive event literal: %s", e.Name, e)
		}
	}
}

func TestSingleTableConditionEDCs(t *testing.T) {
	// positiveQty: lineitem(K,N,Q) ∧ Q ≤ 0 → ⊥. One positive literal →
	// exactly one EDC (the insertion case), with the builtin carried over.
	set := generate(t, "positiveQty",
		`NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity <= 0)`,
		DefaultOptions())
	if len(set.EDCs) != 1 {
		t.Fatalf("EDC count = %d, want 1:\n%s", len(set.EDCs), dump(set))
	}
	e := set.EDCs[0]
	if e.Body.Lits[0].Atom.Kind != logic.PredIns || len(e.Body.Builtins) != 1 {
		t.Errorf("unexpected EDC: %s", e)
	}
	if len(e.Triggers) != 1 || e.Triggers[0] != "ins_lineitem" {
		t.Errorf("triggers = %v", e.Triggers)
	}
}

func TestForeignKeyStyleAssertion(t *testing.T) {
	// Every lineitem references an existing order:
	// lineitem(K,...) ∧ ¬orders(K,P) → ⊥ (P local).
	set := generate(t, "liHasOrder", `NOT EXISTS (
		SELECT * FROM lineitem AS l
		WHERE NOT EXISTS (SELECT * FROM orders AS o WHERE o.o_orderkey = l.l_orderkey))`,
		Options{})
	if len(set.EDCs) != 3 {
		t.Fatalf("EDC count = %d, want 3:\n%s", len(set.EDCs), dump(set))
	}
	// With optimizations: the (ins lineitem, del orders) EDC is NOT an FK
	// fresh-key join (the FK goes the other way), so FK opt must keep all 3.
	set = generate(t, "liHasOrder", `NOT EXISTS (
		SELECT * FROM lineitem AS l
		WHERE NOT EXISTS (SELECT * FROM orders AS o WHERE o.o_orderkey = l.l_orderkey))`,
		DefaultOptions())
	if len(set.EDCs) != 3 {
		t.Errorf("FK optimization over-fired: %d EDCs, want 3\n%s", len(set.EDCs), dump(set))
	}
}

func TestDerivedNotExistsGetsNewStateAndFalsifiers(t *testing.T) {
	// Complex inner subquery (two tables) → derived predicate path.
	set := generate(t, "chain", `NOT EXISTS (
		SELECT * FROM customer AS c
		WHERE NOT EXISTS (
			SELECT * FROM orders AS o, lineitem AS l
			WHERE l.l_orderkey = o.o_orderkey))`,
		DefaultOptions())
	var hasNew bool
	for name := range set.Rules {
		if strings.HasPrefix(name, "new$") {
			hasNew = true
		}
	}
	if !hasNew {
		t.Fatalf("no new-state predicate registered:\n%s", dump(set))
	}
	// Options per literal: customer → 2; ¬d → 1 OLD + falsifiers
	// (2 literals in the rule → δorders- and δlineitem-rooted). Total
	// combinations 2*3-1(all old)=5, minus subsumed.
	if len(set.EDCs) < 3 {
		t.Errorf("suspiciously few EDCs (%d):\n%s", len(set.EDCs), dump(set))
	}
	// Every EDC must carry at least one positive event literal.
	for _, e := range set.EDCs {
		if len(e.Triggers) == 0 {
			t.Errorf("EDC %s has no triggers: %s", e.Name, e)
		}
	}
}

func TestSubsumptionRemovesDuplicates(t *testing.T) {
	// An assertion whose translation yields two identical denials — e.g. an
	// OR with identical arms — must not produce duplicate EDCs.
	set := generate(t, "dup", `NOT EXISTS (
		SELECT * FROM lineitem AS l WHERE l.l_quantity < 0 OR l.l_quantity < 0)`,
		DefaultOptions())
	// The two variants produce EDCs across *different* denials; subsumption
	// runs within one denial, so both remain — but within a denial there
	// are no duplicates.
	seen := map[string]int{}
	for _, e := range set.EDCs {
		key := e.Denial + "|" + signature(e)
		seen[key]++
		if seen[key] > 1 {
			t.Errorf("duplicate EDC within denial: %s", key)
		}
	}
}

func TestDisjointEventsSimplifiesBoundDelete(t *testing.T) {
	// misc constraint: no two tables involved; a fully-bound negative
	// literal: orders with a specific key must exist... use:
	// customer(C,N) ∧ ¬nation(N,R) → ⊥ — N bound, R local → aux needed.
	set := generate(t, "custNation", `NOT EXISTS (
		SELECT * FROM customer AS c
		WHERE NOT EXISTS (SELECT * FROM nation AS n WHERE n.n_nationkey = c.c_nationkey))`,
		Options{})
	found := false
	for _, e := range set.EDCs {
		if strings.Contains(signature(e), "del nation") && strings.Contains(signature(e), "not aux") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected δnation ∧ ¬aux EDC (local region var):\n%s", dump(set))
	}
}

func dump(s *Set) string {
	var b strings.Builder
	for _, e := range s.EDCs {
		b.WriteString(e.Name + ": " + e.String() + "\n")
	}
	for _, name := range s.RuleOrder {
		for _, r := range s.Rules[name] {
			b.WriteString(r.String() + "\n")
		}
	}
	for _, d := range s.Discarded {
		b.WriteString("discarded " + d.EDC.Name + ": " + d.Reason + "\n")
	}
	return b.String()
}

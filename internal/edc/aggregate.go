package edc

import (
	"fmt"

	"tintin/internal/logic"
)

// aggOptions returns the new-state alternatives for an aggregate condition,
// extending the event substitution rules to COUNT/SUM (the paper's §5
// future work, after Oriol & Teniente's ER'15 treatment):
//
//	OLD:       ⟨agg in Dn⟩                      (no event from this conjunct)
//	EVENT-INS: ιT(x̄) ∧ ⟨agg in Dn⟩             (an insertion touched the group)
//	EVENT-DEL: δT(x̄) ∧ ⟨agg in Dn⟩             (a deletion touched the group)
//
// The event atom joins the aggregated table's equality filters, so only
// groups actually touched by the update are re-checked; ⟨agg in Dn⟩ is
// emitted by sqlgen as old ± event-table aggregates.
func (g *generator) aggOptions(cond logic.AggCond) ([]option, error) {
	cols, ok := g.info.TableColumns(cond.Table)
	if !ok {
		return nil, fmt.Errorf("edc: unknown table %s in aggregate condition", cond.Table)
	}
	newCond := cond.Clone()
	newCond.NewState = true

	old := option{conjuncts: logic.Body{Aggs: []logic.AggCond{newCond.Clone()}}}

	mkEvent := func(kind logic.PredKind) option {
		args := make([]logic.Term, len(cols))
		for i := range args {
			args[i] = logic.Var(g.fresh("E$"))
		}
		// Equality filters first (they bind atom arguments and enable index
		// probes); remaining filters become builtins over the final terms.
		var builtins []logic.Builtin
		boundCol := make([]bool, len(cols))
		for _, f := range cond.Filters {
			if f.Op == logic.CmpEq && !boundCol[f.Col] {
				args[f.Col] = f.T
				boundCol[f.Col] = true
			}
		}
		for _, f := range cond.Filters {
			switch {
			case f.Op == logic.CmpEq && boundCol[f.Col] && logic.SameTerm(args[f.Col], f.T):
				// Consumed as an argument binding.
			case f.Op.Unary():
				builtins = append(builtins, logic.Builtin{Op: f.Op, L: args[f.Col]})
			default:
				builtins = append(builtins, logic.Builtin{Op: f.Op, L: args[f.Col], R: f.T})
			}
		}
		atom := logic.Atom{Kind: kind, Name: cond.Table, Args: args}
		return option{event: true, conjuncts: logic.Body{
			Lits:     []logic.Literal{{Atom: atom}},
			Builtins: builtins,
			Aggs:     []logic.AggCond{newCond.Clone()},
		}}
	}
	return []option{old, mkEvent(logic.PredIns), mkEvent(logic.PredDel)}, nil
}

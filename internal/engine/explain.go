package engine

import (
	"fmt"
	"slices"
	"strings"

	"tintin/internal/sqlparser"
)

// ExplainPlan is the JSON-serializable description of one compiled view
// plan: what the planner chose (join order, index probes, conjunct
// placement) and how the plan-cache currently treats the view. Explain is
// side-effect-free — it never populates the cache or moves the cache
// counters, so explaining a view does not perturb the state it reports.
type ExplainPlan struct {
	View string `json:"view"`
	SQL  string `json:"sql"`
	// Cached reports whether a valid compiled plan is resident in the
	// engine's plan cache right now.
	Cached bool `json:"cached"`
	// Branches holds one entry per UNION branch.
	Branches []ExplainBranch `json:"branches,omitempty"`
}

// ExplainBranch describes one planned SELECT block.
type ExplainBranch struct {
	Distinct  bool `json:"distinct,omitempty"`
	Aggregate bool `json:"aggregate,omitempty"`
	// Prefilters run once per execution, before any source is bound.
	Prefilters []string `json:"prefilters,omitempty"`
	// Sources appear in join-loop order: source 0 is the outer loop.
	Sources []ExplainSource `json:"sources"`
	// Subplans lists the compiled subquery plans in syntactic order.
	Subplans []ExplainSubquery `json:"subplans,omitempty"`
}

// ExplainSource is one FROM item of a branch with its chosen access path.
type ExplainSource struct {
	Table string `json:"table"`
	Alias string `json:"alias,omitempty"`
	// Access is "scan" (full table scan), "probe" (hash-index lookup on
	// ProbeColumns using the values of ProbeExprs) or "range" (one lookup
	// per key of a bounded INTEGER range on the single ProbeColumns entry;
	// ProbeExprs holds its bounds as "op expr", e.g. ">= 10", and the level
	// scans when a bound is not an INTEGER or the range is wider than the
	// index has keys).
	Access       string   `json:"access"`
	ProbeColumns []string `json:"probe_columns,omitempty"`
	ProbeExprs   []string `json:"probe_exprs,omitempty"`
	// ProbeNullSafe, parallel to ProbeColumns, marks the columns matched
	// NULL-safely (a NULL probe value finds the rows holding NULL); omitted
	// when every probe of the source is a plain equality.
	ProbeNullSafe []bool `json:"probe_null_safe,omitempty"`
	// Filters are the residual conjuncts first checked once this source is
	// bound.
	Filters []string `json:"filters,omitempty"`
}

// ExplainSubquery is a compiled subquery plan nested under a branch.
type ExplainSubquery struct {
	// Kind is "exists", "not exists", "in", "not in" or "scalar".
	Kind     string          `json:"kind"`
	Branches []ExplainBranch `json:"branches"`
}

// ExplainView describes the compiled plan for a stored view. It reuses the
// cache-resident plan when one is valid, and otherwise compiles a throwaway
// plan without installing it, so the reported Cached state — and the
// engine's PlanCacheStats — are exactly what the next execution will see.
func (e *Engine) ExplainView(name string) (*ExplainPlan, error) {
	name = strings.ToLower(name)
	sel := e.db.View(name)
	if sel == nil {
		return nil, fmt.Errorf("engine: no view %s", name)
	}
	var p *PreparedQuery
	cached := false
	if rp, ok := e.plans[name]; ok && rp.current() {
		p, cached = rp, true
	} else {
		fresh, err := e.prepare(name, sel, nil)
		if err != nil {
			return nil, err
		}
		p = fresh
	}
	out := &ExplainPlan{
		View:   name,
		SQL:    sqlparser.FormatSelect(sel),
		Cached: cached,
	}
	for i, ex := range p.branches {
		out.Branches = append(out.Branches, explainExec(ex, p.dedupe[i]))
	}
	return out, nil
}

func explainExec(ex *exec, distinct bool) ExplainBranch {
	br := ExplainBranch{Distinct: distinct, Aggregate: ex.aggs != nil}
	for _, f := range ex.prefilters {
		br.Prefilters = append(br.Prefilters, sqlparser.FormatExpr(f))
	}
	for k, src := range ex.scope.srcs {
		s := ExplainSource{Alias: src.alias, Access: "scan"}
		if src.table != nil {
			s.Table = src.table.Name()
		} else {
			s.Table = src.view.name
		}
		if len(ex.probes) > k && len(ex.probes[k]) > 0 {
			s.Access = "probe"
			for _, pr := range ex.probes[k] {
				s.ProbeColumns = append(s.ProbeColumns, src.cols[pr.colIdx])
				s.ProbeExprs = append(s.ProbeExprs, sqlparser.FormatExpr(pr.expr))
			}
			if slices.Contains(ex.probeNullSafe[k], true) {
				s.ProbeNullSafe = ex.probeNullSafe[k]
			}
		}
		if len(ex.ranges) > k && ex.ranges[k] != nil {
			s.Access = "range"
			s.ProbeColumns = []string{src.cols[ex.ranges[k][0].colIdx]}
			for _, b := range ex.ranges[k] {
				s.ProbeExprs = append(s.ProbeExprs, b.op.String()+" "+sqlparser.FormatExpr(b.expr))
			}
		}
		if len(ex.filters) > k {
			for _, f := range ex.filters[k] {
				s.Filters = append(s.Filters, sqlparser.FormatExpr(f))
			}
		}
		br.Sources = append(br.Sources, s)
	}
	br.Subplans = explainSubplans(ex)
	return br
}

// explainSubplans walks the branch's projections and WHERE clause in
// syntactic order — subs alone holds union branches without their kind —
// and describes the compiled plan of every directly nested subquery.
func explainSubplans(ex *exec) []ExplainSubquery {
	var out []ExplainSubquery
	visit := func(e sqlparser.Expr) bool {
		var q *sqlparser.Select
		var kind string
		switch x := e.(type) {
		case *sqlparser.Exists:
			q, kind = x.Query, "exists"
			if x.Negated {
				kind = "not exists"
			}
		case *sqlparser.InSubquery:
			q, kind = x.Query, "in"
			if x.Negated {
				kind = "not in"
			}
		case *sqlparser.ScalarSubquery:
			q, kind = x.Query, "scalar"
		default:
			return true
		}
		sq := ExplainSubquery{Kind: kind}
		for cur := q; cur != nil; cur = cur.Union {
			sub, err := ex.subExec(cur)
			if err != nil {
				continue
			}
			sq.Branches = append(sq.Branches, explainExec(sub, cur.Distinct))
		}
		out = append(out, sq)
		return false
	}
	for _, it := range ex.sel.Columns {
		sqlparser.WalkExpr(it.Expr, visit)
	}
	sqlparser.WalkExpr(ex.sel.Where, visit)
	return out
}

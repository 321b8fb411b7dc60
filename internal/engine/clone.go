package engine

import (
	"slices"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// Clone returns an independent copy of a compiled plan for use by one
// worker of the parallel commit-check scheduler: the immutable plan shape
// (AST, conjunct placement, probe offsets and NULL-safe masks, key-set
// range bounds, sources, index handles) is shared, while every piece of
// per-execution state — scope tuples, probe value buffers, key scratch, level
// visitors, aggregate states, IN-subquery memos — is private to the clone.
// Two goroutines may then execute the original and the clone (or two clones)
// concurrently over a quiescent database.
func (p *PreparedQuery) Clone() *PreparedQuery {
	n := &PreparedQuery{
		eng:           p.eng,
		name:          p.name,
		sel:           p.sel,
		dedupe:        p.dedupe,
		cols:          p.cols,
		views:         p.views,
		schemaVersion: p.schemaVersion,
		noProbes:      p.noProbes,
	}
	c := &cloner{scopes: make(map[*scope]*scope)}
	n.branches = make([]*exec, len(p.branches))
	for i, ex := range p.branches {
		n.branches[i] = c.cloneExec(ex)
	}
	return n
}

// cloner memoizes scope copies so the cloned exec tree reproduces the
// original scope-chain sharing (subquery scopes point at their enclosing
// query's scope, not at a fresh copy of it).
type cloner struct {
	scopes map[*scope]*scope
}

func (c *cloner) cloneScope(s *scope) *scope {
	if s == nil {
		return nil
	}
	if n, ok := c.scopes[s]; ok {
		return n
	}
	n := &scope{
		parent: c.cloneScope(s.parent),
		srcs:   s.srcs, // table sources are immutable plan shape (table ptr, col maps)
		tuple:  make([]sqltypes.Row, len(s.tuple)),
	}
	// A view source holds per-execution output, so the clone gets its own,
	// over a clone of the nested plan.
	shared := true
	for i, src := range s.srcs {
		if src.view == nil {
			continue
		}
		if shared {
			n.srcs, shared = append([]*source(nil), s.srcs...), false
		}
		n.srcs[i] = &source{alias: src.alias, cols: src.cols, colIdx: src.colIdx, view: src.view.Clone()}
	}
	c.scopes[s] = n
	return n
}

func (c *cloner) cloneExec(ex *exec) *exec {
	n := &exec{
		eng:           ex.eng,
		sel:           ex.sel,
		scope:         c.cloneScope(ex.scope),
		prefilters:    ex.prefilters,
		filters:       ex.filters,
		probes:        ex.probes,
		probeOffs:     ex.probeOffs,
		probeNullSafe: ex.probeNullSafe,
		probeIdx:      append([]*storage.Index(nil), ex.probeIdx...),
		ranges:        ex.ranges,
		aggs:          slices.Clone(ex.aggs),
	}
	n.probeVals = make([][]sqltypes.Value, len(ex.probeVals))
	for k, pv := range ex.probeVals {
		if pv != nil {
			n.probeVals[k] = make([]sqltypes.Value, len(pv))
		}
	}
	n.initLevels()
	if ex.subs != nil {
		n.subs = make([]subPlan, len(ex.subs))
		for i, s := range ex.subs {
			n.subs[i] = subPlan{q: s.q, ex: c.cloneExec(s.ex)}
		}
	}
	return n
}

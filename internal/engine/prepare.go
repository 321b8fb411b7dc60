package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// PreparedQuery is a query whose evaluation plan — scope resolution,
// conjunct placement, probe selection and subquery plans — was built once,
// so repeated executions (one per safeCommit) touch only data, never the SQL
// text or the planner.
//
// Every query compiles. Base tables are stable objects, so the plan's table
// pointers and column offsets survive arbitrary data changes; a view in FROM
// is a nested PreparedQuery whose output is re-read on every execution of
// the enclosing plan, so it cannot go stale either.
type PreparedQuery struct {
	eng  *Engine
	name string
	sel  *sqlparser.Select

	// branches holds one planned exec per UNION branch.
	branches []*exec
	// dedupe / agg are the per-branch DISTINCT-or-union-distinct and
	// aggregate-projection flags, precomputed off the hot path.
	dedupe []bool
	agg    []bool
	cols   []string
	// views lists the nested plans of the views read anywhere in the tree
	// (FROM items of the branches and of their subqueries): the plan is
	// stale once any of them is redefined.
	views []*PreparedQuery

	schemaVersion uint64
	noProbes      bool
}

// PlanCacheStats counts plan-cache traffic on an engine.
type PlanCacheStats struct {
	// Hits is the number of view executions served by a reusable compiled
	// plan.
	Hits int `json:"hits"`
	// Misses counts plan compilations (first use of a view).
	Misses int `json:"misses"`
	// Invalidations counts cached plans discarded because the schema
	// changed, the view (or a view it reads) was redefined, or the probe
	// setting flipped.
	Invalidations int `json:"invalidations"`
}

// planCounters is the engine-internal, atomically updated form of
// PlanCacheStats. The prepare path runs on the commit coordinator while
// stats readers (GaugeFunc exports, \stats, concurrent Tool.Stats() calls)
// may load from any goroutine, so plain ints would race.
type planCounters struct {
	hits, misses, invalidations atomic.Int64
}

// PlanCacheStats returns the engine's plan-cache counters. The exported
// shape stays the plain-int struct whose JSON encoding \explain pins.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          int(e.planStats.hits.Load()),
		Misses:        int(e.planStats.misses.Load()),
		Invalidations: int(e.planStats.invalidations.Load()),
	}
}

// Name returns the view name the plan was prepared for; trace spans and
// pprof labels use it to attribute work to views.
func (p *PreparedQuery) Name() string { return p.name }

// current reports whether the plan still matches what it was compiled
// against: the view's definition — and, recursively, the definition of every
// view it reads — the table set, and the probe setting.
func (p *PreparedQuery) current() bool {
	e := p.eng
	if p.sel != e.db.View(p.name) || p.schemaVersion != e.db.SchemaVersion() || p.noProbes != e.DisableIndexProbes {
		return false
	}
	for _, v := range p.views {
		if !v.current() {
			return false
		}
	}
	return true
}

// PrepareView returns the compiled plan for a stored view, building and
// caching it on first use and transparently re-preparing when the table set
// changed, the view or one it reads was redefined, or index probing was
// toggled.
func (e *Engine) PrepareView(name string) (*PreparedQuery, error) {
	name = strings.ToLower(name)
	if p, ok := e.plans[name]; ok {
		if p.current() {
			e.planStats.hits.Add(1)
			return p, nil
		}
		delete(e.plans, name)
		e.planStats.invalidations.Add(1)
	}
	sel := e.db.View(name)
	if sel == nil {
		return nil, fmt.Errorf("engine: no view %s", name)
	}
	p, err := e.prepare(name, sel)
	if err != nil {
		return nil, err
	}
	e.planStats.misses.Add(1)
	if e.plans == nil {
		e.plans = make(map[string]*PreparedQuery)
	}
	e.plans[name] = p
	return p, nil
}

// InvalidatePlans drops every cached plan (used when a caller mutates state
// the engine cannot observe).
func (e *Engine) InvalidatePlans() {
	e.planStats.invalidations.Add(int64(len(e.plans)))
	e.plans = nil
}

// ForgetPlan drops the cached plan for one view; callers use it when they
// drop the view itself.
func (e *Engine) ForgetPlan(name string) {
	name = strings.ToLower(name)
	if _, ok := e.plans[name]; ok {
		delete(e.plans, name)
		e.planStats.invalidations.Add(1)
	}
}

// prepare compiles sel (a stored view's definition, or an ad-hoc query under
// the name "") with no outer scope.
func (e *Engine) prepare(name string, sel *sqlparser.Select) (*PreparedQuery, error) {
	p := &PreparedQuery{
		eng:           e,
		name:          name,
		sel:           sel,
		schemaVersion: e.db.SchemaVersion(),
		noProbes:      e.DisableIndexProbes,
	}
	// A UNION without ALL anywhere in the chain dedupes across all branches;
	// DISTINCT on a branch dedupes that branch's output.
	unionDistinct := false
	for s := sel; s != nil; s = s.Union {
		if s.Union != nil && !s.UnionAll {
			unionDistinct = true
		}
	}
	for cur := sel; cur != nil; cur = cur.Union {
		ex, err := e.newExec(cur, nil)
		if err != nil {
			return nil, err
		}
		cols := ex.outputColumns()
		if p.cols == nil {
			p.cols = cols
		} else if len(p.cols) != len(cols) {
			return nil, fmt.Errorf("engine: UNION branches have different arity (%d vs %d)",
				len(p.cols), len(cols))
		}
		p.branches = append(p.branches, ex)
		p.dedupe = append(p.dedupe, cur.Distinct || unionDistinct)
		p.agg = append(p.agg, hasAggregates(cur))
		p.views = append(p.views, ex.views...)
	}
	return p, nil
}

// reset clears the per-execution memo state of a plan (and of its subquery
// plans) so a fresh run re-reads current table data: IN-subquery value sets
// and the output of views in FROM. It also clears skipProject: a panic
// recovered above the engine (the scheduler's committer does this and keeps
// cached plans alive) can unwind past runExists' restore, and a cached exec
// stuck in existence mode would emit nil rows forever after.
func (ex *exec) reset() {
	ex.inMemo = nil
	ex.skipProject = false
	for _, src := range ex.scope.srcs {
		if src.view != nil { // table sources are shared between clones: never written
			src.fresh = false
		}
	}
	//tintin:allow nodeterminism each sub-plan reset is independent; order never reaches results
	for _, sub := range ex.subs {
		sub.reset()
	}
}

// EnsureIndexes builds, at preparation time, every hash index the plan's
// probes will use — base and event tables alike, nested view plans included —
// so executions always probe and never pay on-demand index construction.
func (p *PreparedQuery) EnsureIndexes() error {
	for _, ex := range p.branches {
		if err := ex.ensureProbeIndexes(); err != nil {
			return err
		}
	}
	return nil
}

func (ex *exec) ensureProbeIndexes() error {
	for k, ps := range ex.probes {
		src := ex.scope.srcs[k]
		if src.view != nil {
			if err := src.view.EnsureIndexes(); err != nil {
				return err
			}
		}
		if len(ps) == 0 || src.table == nil || ex.probeIdx[k] != nil {
			continue
		}
		idx, err := src.table.IndexOn(ex.probeOffs[k])
		if err != nil {
			return err
		}
		ex.probeIdx[k] = idx
	}
	//tintin:allow nodeterminism per-sub-plan index builds are independent; order only picks which error surfaces first
	for _, sub := range ex.subs {
		if err := sub.ensureProbeIndexes(); err != nil {
			return err
		}
	}
	return nil
}

// Query executes the prepared plan and materializes a fresh result.
func (p *PreparedQuery) Query() (*Result, error) {
	res := &Result{}
	if err := p.QueryInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryInto executes the prepared plan into a caller-owned result, reusing
// res.Rows' capacity: the commit-time check loop passes the same Result
// every call, so the common no-violation check allocates no result storage
// at all. The rows appended alias live plan output; callers that keep them
// beyond the next execution must copy the slice (the rows themselves are
// immutable).
func (p *PreparedQuery) QueryInto(res *Result) error {
	return p.QueryLimitInto(0, res)
}

// QueryLimitInto is QueryInto with a row cap: limit > 0 stops execution as
// soon as that many rows have been collected, riding the exec machinery's
// early-exit path (the emit sink returning false). This is the FailFast
// commit check — a caller that only needs accept/reject stops at the first
// violating row instead of materializing every violation. limit <= 0 means
// no cap.
func (p *PreparedQuery) QueryLimitInto(limit int, res *Result) error {
	res.Rows = res.Rows[:0]
	res.Columns = p.cols
	var seen map[string]bool
	for i, ex := range p.branches {
		if limit > 0 && len(res.Rows) >= limit {
			break
		}
		ex.reset()
		if p.agg[i] {
			row, err := p.eng.runAggregate(ex, ex.sel)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, row)
			continue
		}
		dedupe := p.dedupe[i]
		if dedupe && seen == nil {
			seen = map[string]bool{}
		}
		err := ex.run(func(row sqltypes.Row) (bool, error) {
			if dedupe {
				k := row.Key()
				if seen[k] {
					return true, nil
				}
				seen[k] = true
			}
			res.Rows = append(res.Rows, row)
			return limit <= 0 || len(res.Rows) < limit, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DrivingScan returns the table driving the plan's outer join loop when the
// plan is partitionable: a single SELECT branch with neither DISTINCT nor
// aggregate projection, whose level-0 FROM source is a base
// table read by full scan (no level-0 index probes). For such a plan the
// outer loop visits driving-table rows in slot order and every output row
// is owned by exactly one driving row, so restricting the scan to a row
// range yields a disjoint, contiguous slice of the plan's output:
// concatenating the slices in range order reproduces the unrestricted
// output bit for bit. Multi-branch, deduplicating and aggregate plans
// cross-couple rows from different driving partitions and are not
// splittable this way.
func (p *PreparedQuery) DrivingScan() (*storage.Table, bool) {
	if len(p.branches) != 1 || p.dedupe[0] || p.agg[0] {
		return nil, false
	}
	ex := p.branches[0]
	if len(ex.scope.srcs) == 0 {
		return nil, false
	}
	src := ex.scope.srcs[0]
	if src.table == nil || len(ex.probes[0]) > 0 {
		return nil, false
	}
	return src.table, true
}

// QueryPartitionInto executes the plan with the driving scan restricted to
// the slot range r, leaving every probe, filter and subplan untouched — one
// partition subtask of a split commit check. The restriction lasts for this
// execution only (panic-safe), so a worker's cached clone alternates freely
// between partitioned and whole executions without re-cloning. The receiver
// must be private to the caller (a worker clone, never the shared prototype)
// and partitionable per DrivingScan; calling this on a non-partitionable
// plan is a programming error and panics.
func (p *PreparedQuery) QueryPartitionInto(r storage.RowRange, limit int, res *Result) error {
	if _, ok := p.DrivingScan(); !ok {
		panic(fmt.Sprintf("engine: QueryPartitionInto on non-partitionable plan %s", p.name))
	}
	ex := p.branches[0]
	savedRange, savedHas := ex.scanRange, ex.hasRange
	ex.scanRange, ex.hasRange = r, true
	defer func() { ex.scanRange, ex.hasRange = savedRange, savedHas }()
	return p.QueryLimitInto(limit, res)
}

// NonEmpty reports whether the prepared query yields any row, stopping at
// the first.
func (p *PreparedQuery) NonEmpty() (bool, error) {
	for _, ex := range p.branches {
		ex.reset()
		found, err := ex.runExists()
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

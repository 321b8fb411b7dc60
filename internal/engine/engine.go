// Package engine evaluates the SQL fragment produced by the parser against a
// storage.DB: selection/projection/join queries with correlated EXISTS /
// NOT EXISTS / IN subqueries, UNION, and views.
//
// The planner is deliberately simple but index-aware: joins are evaluated as
// index nested loops (equality conjuncts against hash indexes built on
// demand), and correlated subqueries probe indexes through the outer scope.
// That asymmetry — tiny event tables driving index probes into large base
// tables — is exactly what makes TINTIN's incremental views fast, so the
// evaluator reproduces the performance shape of a production DBMS without
// copying one.
package engine

import (
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// Engine evaluates queries against one database.
type Engine struct {
	db    *storage.DB
	procs map[string]Procedure
	// DisableIndexProbes forces nested-loop scans everywhere; used by the
	// E4 ablation to quantify what index probing contributes.
	DisableIndexProbes bool

	// plans caches compiled view plans by view name (see PrepareView);
	// planStats counts its traffic.
	plans     map[string]*PreparedQuery
	planStats planCounters
}

// New returns an engine over db.
func New(db *storage.DB) *Engine { return &Engine{db: db} }

// DB returns the underlying database.
func (e *Engine) DB() *storage.DB { return e.db }

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
}

// IsEmpty reports whether the result has no rows.
func (r *Result) IsEmpty() bool { return len(r.Rows) == 0 }

// QuerySQL parses and evaluates a SELECT.
func (e *Engine) QuerySQL(src string) (*Result, error) {
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return e.Query(sel)
}

// Query evaluates a parsed SELECT: compile, then run — the executor stored
// views use, minus the plan cache.
func (e *Engine) Query(sel *sqlparser.Select) (*Result, error) {
	p, err := e.prepare("", sel, nil)
	if err != nil {
		return nil, err
	}
	return p.Query()
}

// QueryView evaluates the named stored view through its cached plan.
func (e *Engine) QueryView(name string) (*Result, error) {
	p, err := e.PrepareView(name)
	if err != nil {
		return nil, err
	}
	return p.Query()
}

// ViewNonEmpty reports whether the named view returns at least one row,
// stopping at the first; it executes the cached plan.
func (e *Engine) ViewNonEmpty(name string) (bool, error) {
	p, err := e.PrepareView(name)
	if err != nil {
		return false, err
	}
	return p.NonEmpty()
}

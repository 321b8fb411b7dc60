// Package core seeds hotpathcompile violations: its Tool.safeCommit and
// Tool.check are the commit-path roots, and the fixture exercises
// direct intrinsics (regexp), imported facts (engine, sqlparser), local
// transitive reachability, non-root functions, and suppression.
package core

import (
	"regexp"

	"tintin/internal/lint/testdata/src/hotpath/internal/engine"
	"tintin/internal/lint/testdata/src/hotpath/internal/sqlparser"
)

type Tool struct {
	eng  *engine.Engine
	plan *engine.Plan
}

func (t *Tool) safeCommit() error {
	p := t.eng.PrepareView("v") // want `safeCommit \(commit path via safeCommit\) calls \(\*Engine\)\.PrepareView .*compiles a plan at commit time`
	_ = p.QueryLimitInto(1)     // executing a compiled plan: clean
	t.helper()
	return nil
}

// helper is commit-reachable through safeCommit, so its intrinsic call is
// flagged here, at the call site a suppression would have to annotate.
func (t *Tool) helper() {
	re := regexp.MustCompile(`x+`) // want `helper \(commit path via safeCommit → helper\) calls regexp\.MustCompile .*compiles a plan at commit time`
	_ = re
}

func (t *Tool) check() {
	_, _ = sqlparser.Parse("SELECT 1") // want `check \(commit path via check\) calls sqlparser\.Parse .*compiles a plan at commit time`
	_ = t.eng.Query("v")               // want `check \(commit path via check\) calls \(\*Engine\)\.Query .*compiles a plan at commit time`
	//tintin:allow hotpathcompile cache hit for installed views
	t.plan = t.eng.PrepareView("v")
}

// Install is not a commit-path root: compilation here is the point.
func (t *Tool) Install() {
	t.eng.PrepareView("v")
	_, _ = sqlparser.ParseSelect("SELECT 1")
	_ = regexp.MustCompile(`y+`)
}

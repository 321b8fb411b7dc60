// Package lint implements the tintinvet analyzers: a static-analysis suite
// that mechanizes the repo's commit-path invariants at the source level,
// and the one driver that runs it (Run, Check).
//
// The standing constraints in ROADMAP.md — plan-compilation-free commits,
// +0-alloc direct-pointer metrics, NULL-safe Value comparison,
// deterministic merges — are each guarded dynamically by one test or
// benchmark that exercises one code path. A new call site that violates
// them compiles clean and slips past until a bench regresses. These
// analyzers encode the same invariants as static checks over every call
// site, the way the differential oracle (internal/difftest) encodes the
// semantic ones over every generated workload.
//
// The suite:
//
//   - hotpathcompile: no plan compilation (engine prepare/exec-tree
//     construction, regexp compilation, SQL parsing) reachable from the
//     commit path. Mechanizes TestSafeCommitUsesPlanCache.
//   - obsdirect: no obs.Registry lookups reachable from the commit path;
//     commit-path metrics must go through direct pointers resolved at
//     construction. Mechanizes the `make bench-obs` +0-alloc constraint.
//   - errprefix: every errors.New / fmt.Errorf in internal/... carries a
//     recognized subsystem prefix or wraps a cause via %w.
//   - valuecompare: no ==/!= on sqltypes.Value outside internal/sqltypes
//     (the tri-valued NULL trap behind PR 6's delta-subtraction bug).
//   - nodeterminism: no time.Now/math-rand calls or map-range iteration
//     in internal/engine result-building code (merge determinism).
//
// Every analyzer honors the suppression directive
//
//	//tintin:allow <analyzer>[,<analyzer>] <reason>
//
// on the flagged line or the line above it. The reason string is
// mandatory; the tintinallow analyzer reports malformed directives.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one check of the suite. Its name is what //tintin:allow
// directives refer to.
type Analyzer struct {
	Name string
	run  func(*pass)
}

// pass is one analyzer's view of one type-checked package.
type pass struct {
	analyzer *Analyzer
	fset     *token.FileSet
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
	allow    *allowIndex
	// facts is the analyzer's object facts, shared by every package of
	// one run. Packages are analyzed dependencies first, so a fact about
	// an imported function is in place before any caller is analyzed.
	facts  map[types.Object]string
	report func(pos token.Pos, msg string)
}

// reportf emits a diagnostic unless a //tintin:allow directive covers it.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	if p.allow.allows(p.analyzer.Name, pos) {
		return
	}
	p.report(pos, fmt.Sprintf(format, args...))
}

// inspect calls visit for every node of every file of the package, in
// depth-first order.
func inspect(pass *pass, visit func(ast.Node)) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				visit(n)
			}
			return true
		})
	}
}

// Analyzers returns the full tintinvet suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AllowAnalyzer,
		HotPathCompileAnalyzer,
		ObsDirectAnalyzer,
		ErrPrefixAnalyzer,
		ValueCompareAnalyzer,
		NoDeterminismAnalyzer,
	}
}

// analyzerNames is the set of names //tintin:allow may reference.
var analyzerNames = map[string]bool{
	"hotpathcompile": true,
	"obsdirect":      true,
	"errprefix":      true,
	"valuecompare":   true,
	"nodeterminism":  true,
}

package lint

import (
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// HotPathCompileAnalyzer enforces the plan-compilation-free commit
// invariant: no plan compilation — engine prepare/exec-tree construction,
// regexp compilation, SQL parsing — may be reachable from Tool.safeCommit
// or Tool.check. Install time pays every compilation cost exactly once
// (plan cache, index selection); commit time only executes.
//
// TestSafeCommitUsesPlanCache proves this dynamically for the code paths
// it exercises; this analyzer proves the call graph has no others.
var HotPathCompileAnalyzer = &analysis.Analyzer{
	Name: "hotpathcompile",
	Doc: "no plan compilation reachable from the commit path\n\n" +
		"Commit-time checking must execute cached plans only: compilation\n" +
		"(engine.prepare/newExec, regexp.Compile, sqlparser.Parse*) belongs\n" +
		"to install time. Every view compiles and executing a compiled plan\n" +
		"never plans, so the one known-safe site — the plan-cache lookup,\n" +
		"a hit for every installed view — carries a //tintin:allow\n" +
		"hotpathcompile directive explaining why.",
	Requires:  []*analysis.Analyzer{AllowAnalyzer},
	FactTypes: []analysis.Fact{(*CompilesFact)(nil)},
	Run: func(pass *analysis.Pass) (interface{}, error) {
		return runReach(pass, reachConfig{
			isIntrinsic: isCompileIntrinsic,
			importFact: func(pass *analysis.Pass, fn *types.Func) (string, bool) {
				var f CompilesFact
				if pass.ImportObjectFact(fn, &f) {
					return f.Chain, true
				}
				return "", false
			},
			exportFact: func(pass *analysis.Pass, fn *types.Func, chain string) {
				pass.ExportObjectFact(fn, &CompilesFact{Chain: chain})
			},
			verb: "compiles a plan at commit time",
		})
	},
}

// CompilesFact marks a function that can transitively trigger plan
// compilation; Chain is a witness path to the intrinsic that does.
type CompilesFact struct{ Chain string }

// AFact marks CompilesFact as a serializable analysis fact.
func (*CompilesFact) AFact() {}

func (f *CompilesFact) String() string { return "compiles via " + f.Chain }

// isCompileIntrinsic identifies the ground-truth compilation entry points.
func isCompileIntrinsic(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch {
	case pkg.Path() == "regexp":
		switch fn.Name() {
		case "Compile", "MustCompile", "CompilePOSIX", "MustCompilePOSIX":
			return "compiles a regexp", true
		}
	case pathHasSuffix(pkg.Path(), "internal/engine"):
		// The engine's own compilation entry points: prepare builds a
		// plan, newExec builds one block's exec tree (subqueries included).
		if receiverNamed(fn) == "Engine" {
			switch fn.Name() {
			case "prepare", "newExec":
				return "builds an exec plan", true
			}
		}
	case pathHasSuffix(pkg.Path(), "internal/sqlparser"):
		// Parsing at commit time means SQL text survived installation;
		// the commit path must only see compiled artifacts.
		if receiverNamed(fn) == "" && strings.HasPrefix(fn.Name(), "Parse") {
			return "parses SQL", true
		}
	}
	return "", false
}

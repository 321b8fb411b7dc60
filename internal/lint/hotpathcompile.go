package lint

import (
	"go/types"
	"strings"
)

// HotPathCompileAnalyzer enforces the plan-compilation-free commit
// invariant: no plan compilation — engine prepare/exec-tree construction,
// regexp compilation, SQL parsing — may be reachable from Tool.safeCommit
// or Tool.check. Install time pays every compilation cost exactly once
// (plan cache, index selection); commit time only executes.
//
// TestSafeCommitUsesPlanCache proves this dynamically for the code paths
// it exercises; this analyzer proves the call graph has no others.
//
// Every view compiles and executing a compiled plan never plans, so the one
// known-safe site — the plan-cache lookup, a hit for every installed view —
// carries a //tintin:allow hotpathcompile directive explaining why.
var HotPathCompileAnalyzer = &Analyzer{
	Name: "hotpathcompile",
	run: func(pass *pass) {
		runReach(pass, reachConfig{
			isIntrinsic: isCompileIntrinsic,
			verb:        "compiles a plan at commit time",
		})
	},
}

// isCompileIntrinsic identifies the ground-truth compilation entry points.
func isCompileIntrinsic(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch {
	case pkg.Path() == "regexp":
		// The package-level Match* helpers compile their pattern on every
		// call; they are named here because the standard library carries
		// no facts.
		switch fn.Name() {
		case "Compile", "MustCompile", "CompilePOSIX", "MustCompilePOSIX",
			"Match", "MatchString", "MatchReader":
			if receiverNamed(fn) == "" {
				return "compiles a regexp", true
			}
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

package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// NoDeterminismAnalyzer guards the engine's determinism guarantee: a view
// checked on any pool worker must return exactly what the serial check
// returns, and the differential oracle compares engine output across five
// execution modes. That only holds if result construction is a pure
// function of the snapshot — so
// inside internal/engine, wall-clock reads (time.Now/Since/Until),
// math/rand, and ranging over a map (iteration order is randomized) are
// banned. Order-independent map walks do exist (invalidating a cache);
// they carry a //tintin:allow nodeterminism directive saying so.
var NoDeterminismAnalyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "no wall-clock, math/rand, or map-range iteration in internal/engine\n\n" +
		"Engine results must be a deterministic function of the frozen\n" +
		"snapshot: the worker pool and the differential oracle both\n" +
		"compare them bit-for-bit. Iterate sorted key slices instead of\n" +
		"maps; measure time outside the engine.",
	Requires: []*analysis.Analyzer{AllowAnalyzer, inspect.Analyzer},
	Run:      runNoDeterminism,
}

func runNoDeterminism(pass *analysis.Pass) (interface{}, error) {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/engine") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodes := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil), (*ast.ImportSpec)(nil)}
	ins.Preorder(nodes, func(n ast.Node) {
		if inTestFile(pass, n.Pos()) {
			return // tests may time themselves and randomize inputs
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			fn, ok := typeutil.Callee(pass.TypesInfo, x).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return
			}
			if fn.Pkg().Path() == "time" {
				switch fn.Name() {
				case "Now", "Since", "Until":
					reportf(pass, x.Pos(),
						"time.%s in engine code: results must be a deterministic function of the snapshot", fn.Name())
				}
			}
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(x.X)
			if t == nil {
				return
			}
			if _, isMap := types.Unalias(t).Underlying().(*types.Map); isMap {
				reportf(pass, x.Range,
					"map iteration order is randomized; engine result paths must iterate deterministically (sort the keys)")
			}
		case *ast.ImportSpec:
			path, err := strconv.Unquote(x.Path.Value)
			if err != nil {
				return
			}
			if path == "math/rand" || path == "math/rand/v2" ||
				strings.HasPrefix(path, "math/rand/") {
				reportf(pass, x.Pos(), "%s has no place in deterministic engine code", path)
			}
		}
	})
	return nil, nil
}

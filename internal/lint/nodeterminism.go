package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
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
//
// Iterate sorted key slices instead of maps; measure time outside the
// engine.
var NoDeterminismAnalyzer = &Analyzer{Name: "nodeterminism", run: runNoDeterminism}

func runNoDeterminism(pass *pass) {
	if !pathHasSuffix(pass.pkg.Path(), "internal/engine") {
		return
	}
	inspect(pass, func(n ast.Node) {
		if inTestFile(pass, n.Pos()) {
			return // tests may time themselves and randomize inputs
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := callee(pass.info, x)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			if fn.Pkg().Path() == "time" {
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.reportf(x.Pos(),
						"time.%s in engine code: results must be a deterministic function of the snapshot", fn.Name())
				}
			}
		case *ast.RangeStmt:
			t := pass.info.TypeOf(x.X)
			if t == nil {
				return
			}
			if _, isMap := types.Unalias(t).Underlying().(*types.Map); isMap {
				pass.reportf(x.Range,
					"map iteration order is randomized; engine result paths must iterate deterministically (sort the keys)")
			}
		case *ast.ImportSpec:
			path, err := strconv.Unquote(x.Path.Value)
			if err != nil {
				return
			}
			if path == "math/rand" || path == "math/rand/v2" ||
				strings.HasPrefix(path, "math/rand/") {
				pass.reportf(x.Pos(), "%s has no place in deterministic engine code", path)
			}
		}
	})
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ValueCompareAnalyzer flags ==/!= (and switch cases, which compare the
// same way) over sqltypes.Value outside internal/sqltypes. Go's == on the
// struct is bytewise: it calls NULL equal to NULL and 1 (INTEGER) unequal
// to 1.0 (REAL), both wrong under SQL's tri-valued comparison semantics.
// The differential oracle caught exactly this once — the delta-subtraction
// bug where a deleted (1, NULL) row never matched itself. Use
// sqltypes.Compare / Value.Equal (NULL-aware) or, for row-identity
// matching where NULL must match NULL, the encoded-key comparison.
var ValueCompareAnalyzer = &Analyzer{Name: "valuecompare", run: runValueCompare}

func runValueCompare(pass *pass) {
	if pathHasSuffix(pass.pkg.Path(), "internal/sqltypes") {
		return // the one package allowed to see the representation
	}
	inspect(pass, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				return
			}
			if isSQLValue(pass, x.X) || isSQLValue(pass, x.Y) {
				pass.reportf(x.OpPos,
					"%s on sqltypes.Value compares raw representations; use the NULL-aware sqltypes comparison API", x.Op)
			}
		case *ast.SwitchStmt:
			if x.Tag != nil && isSQLValue(pass, x.Tag) {
				pass.reportf(x.Switch,
					"switch on sqltypes.Value compares raw representations; use the NULL-aware sqltypes comparison API")
			}
		}
	})
}

// isSQLValue reports whether e's type is the sqltypes Value struct.
func isSQLValue(pass *pass, e ast.Expr) bool {
	t := pass.info.TypeOf(e)
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Value" && obj.Pkg() != nil &&
		pathHasSuffix(obj.Pkg().Path(), "internal/sqltypes")
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
)

// recognizedPrefixes are the subsystem tags an error message may open
// with. The convention: an error is prefixed once, at its origin; wrappers
// add context with %w and inherit the prefix from the cause.
var recognizedPrefixes = []string{
	"tintin", "typecheck", "engine", "storage", "wal", "sched", "obs",
	"harness", "tpch", "sqltypes", "sqlparser", "sqlgen", "logic", "edc",
	"baseline", "difftest", "lint",
}

// ErrPrefixAnalyzer enforces the error-message convention across
// internal/...: every errors.New / fmt.Errorf must either open with a
// recognized subsystem prefix ("tintin: ...", "wal: ...") or wrap a cause
// via %w (context wrappers inherit the origin's prefix through the chain).
// A bare message like "unknown table t" gives an operator no way to tell
// which subsystem rejected their input.
//
// The prefix belongs at the error's origin; wrapping context
// ("assertion %s: %w") needs none of its own.
var ErrPrefixAnalyzer = &Analyzer{Name: "errprefix", run: runErrPrefix}

func runErrPrefix(pass *pass) {
	if !strings.Contains(pass.pkg.Path()+"/", "internal/") {
		return // convention scoped to the internal tree
	}
	inspect(pass, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		fn := callee(pass.info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		var wrapOK bool
		switch {
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
			wrapOK = true
		default:
			return
		}
		if inTestFile(pass, call.Pos()) {
			return // test scaffolding errors are not user-facing
		}
		tv, ok := pass.info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return // dynamic format string: nothing to check statically
		}
		msg := constant.StringVal(tv.Value)
		if wrapOK && strings.Contains(msg, "%w") {
			return
		}
		if hasRecognizedPrefix(msg) {
			return
		}
		pass.reportf(call.Pos(),
			"error message %q lacks a subsystem prefix (%s, ...) and does not wrap a cause via %%w",
			abbreviate(msg), recognizedPrefixes[0]+":")
	})
}

// hasRecognizedPrefix reports whether msg opens with "<subsystem>: ".
func hasRecognizedPrefix(msg string) bool {
	for _, p := range recognizedPrefixes {
		if strings.HasPrefix(msg, p+": ") || msg == p+":" {
			return true
		}
	}
	return false
}

// inTestFile reports whether pos is inside a _test.go file.
func inTestFile(pass *pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.fset.Position(pos).Filename, "_test.go")
}

// abbreviate keeps diagnostics one-line for long format strings.
func abbreviate(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// reach.go is the shared machinery behind hotpathcompile and obsdirect:
// both are reachability questions — "can the commit path hit one of these
// intrinsics?" — answered over a per-package static call graph plus object
// facts that carry reachability summaries across package boundaries.
//
// Packages are analyzed dependency-first (the driver guarantees it), so the
// flow is bottom-up: when internal/engine is analyzed, every function that
// transitively reaches an intrinsic (say (*Engine).newExec) gets a fact
// with a witness chain; when internal/core is analyzed later, a call from a
// commit-path function to any fact-carrying callee is a diagnostic,
// positioned at that call site so a //tintin:allow directive can sit on the
// offending line. Functions are visited in declaration order, so witness
// chains are the same on every run.
//
// The graph is best-effort static: direct calls and method calls resolved
// by callee. Calls through function values and interface methods are
// invisible — acceptable for a lint gate whose job is catching the
// ordinary mistake, not proving the absence of an extraordinary one.
// Function literals are attributed to their enclosing declaration, so a
// deferred closure inside safeCommit is commit-path code too.

// callEdge is one static call from a declared function.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// callGraph builds the package-local static call graph: every declared
// function and method, in declaration order, with one edge per resolvable
// call in its body (including calls inside nested function literals).
func callGraph(pass *pass) (funcs []*types.Func, g map[*types.Func][]callEdge) {
	g = make(map[*types.Func][]callEdge)
	for _, f := range pass.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			var edges []callEdge // nil for a body with no calls is fine
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := callee(pass.info, call); fn != nil {
						edges = append(edges, callEdge{callee: fn, pos: call.Pos()})
					}
				}
				return true
			})
			funcs = append(funcs, fn)
			g[fn] = edges
		}
	}
	return funcs, g
}

// callee returns the function or method a call names, or nil when it
// calls a function value, a builtin or a conversion. An interface method
// counts: it names a method, though not the one that runs.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) { // look through an explicit instantiation f[T]
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var obj types.Object
	switch x := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[x.Sel] // a qualified identifier
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// reachConfig parameterizes one reachability analyzer.
type reachConfig struct {
	// isIntrinsic reports whether calling fn directly is the banned
	// operation, with a short human description of what it does.
	isIntrinsic func(fn *types.Func) (string, bool)
	// verb completes the diagnostic: "<fn> (commit path via <root>) calls
	// <chain>, which <verb>".
	verb string
}

// runReach is the shared Run body. Roots are the commit-path entry points
// (isCommitRoot); the closure over local edges from them is "commit
// reachable". Any edge from commit-reachable code to an intrinsic or
// fact-carrying callee is reported at the call site. Independently, every
// local function that can reach an intrinsic gets a fact — its witness
// chain — so downstream packages see through this one.
func runReach(pass *pass, cfg reachConfig) {
	funcs, g := callGraph(pass)

	// calleeChain returns the witness chain for an edge that directly
	// hits the invariant: the callee is an intrinsic, or carries a fact
	// exported by its own (already-analyzed) package.
	calleeChain := func(callee *types.Func) (string, bool) {
		if desc, ok := cfg.isIntrinsic(callee); ok {
			return funcLabel(callee) + " (" + desc + ")", true
		}
		if callee.Pkg() == pass.pkg {
			// Local callees are handled by the package-level fixpoint
			// (and reported at their own deeper call sites), not via the
			// facts this very pass exported moments ago.
			return "", false
		}
		if chain, ok := pass.facts[callee]; ok {
			return funcLabel(callee) + " → " + chain, true
		}
		if chain, ok := pass.facts[callee.Origin()]; ok {
			return funcLabel(callee) + " → " + chain, true
		}
		return "", false
	}

	// Bottom-up: compute, for every local function, a witness chain to an
	// intrinsic if one exists (through local edges and imported facts).
	reaches := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if _, done := reaches[fn]; done {
				continue
			}
			for _, e := range g[fn] {
				if chain, ok := calleeChain(e.callee); ok {
					reaches[fn] = chain
					changed = true
					break
				}
				if chain, ok := reaches[e.callee]; ok {
					reaches[fn] = funcLabel(e.callee) + " → " + chain
					changed = true
					break
				}
			}
		}
	}
	for fn, chain := range reaches {
		pass.facts[fn] = chain
	}

	// Top-down: forward closure from the commit-path roots over local
	// edges, remembering how each function was reached for the message.
	type rooted struct{ via string }
	commit := make(map[*types.Func]rooted)
	var queue []*types.Func
	for _, fn := range funcs {
		if isCommitRoot(fn) {
			commit[fn] = rooted{via: fn.Name()}
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g[fn] {
			if _, local := g[e.callee]; !local {
				continue
			}
			if _, seen := commit[e.callee]; seen {
				continue
			}
			commit[e.callee] = rooted{via: commit[fn].via + " → " + e.callee.Name()}
			queue = append(queue, e.callee)
		}
	}

	// Report every edge from commit-reachable code into the invariant.
	for fn, r := range commit {
		for _, e := range g[fn] {
			if chain, ok := calleeChain(e.callee); ok {
				pass.reportf(e.pos, "%s (commit path via %s) calls %s, which %s",
					fn.Name(), r.via, chain, cfg.verb)
			}
		}
	}
}

// isCommitRoot reports whether fn is a commit-path entry point: the
// safeCommit procedure (exported wrapper included) or the check it runs
// (also reachable on its own through Tool.Check), on core's Tool.
func isCommitRoot(fn *types.Func) bool {
	if fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), "internal/core") {
		return false
	}
	switch fn.Name() {
	case "safeCommit", "SafeCommit", "check":
	default:
		return false
	}
	return receiverNamed(fn) == "Tool"
}

// receiverNamed returns the name of fn's receiver's (pointer-stripped)
// named type, or "" for plain functions.
func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcLabel renders a function for diagnostics: "(*Engine).prepare" or
// "regexp.MustCompile".
func funcLabel(fn *types.Func) string {
	if recv := receiverNamed(fn); recv != "" {
		return "(*" + recv + ")." + fn.Name()
	}
	if fn.Pkg() != nil && fn.Pkg().Name() != "" {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// pathHasSuffix reports whether pkg path is exactly suffix or ends with
// "/"+suffix. Matching by suffix keeps the analyzers honest over their
// fixtures, which mirror the repo layout under testdata.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

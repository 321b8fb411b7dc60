package lint

import "go/types"

// ObsDirectAnalyzer enforces the observability disciplines of the commit
// path:
//
//   - No obs.Registry lookups — lookups take the registry mutex and build
//     the labeled name, exactly the overhead the +0-alloc guarantee (make
//     bench-obs) forbids. Instruments are resolved once at construction
//     (toolMetrics, Pool.WithMetrics, ...) and the hot path touches only
//     the resolved pointers.
//   - No structured logging — every log/slog call (and therefore every
//     obs.Logger method, which wraps one) formats and allocates. Logging
//     is lifecycle-time only: recovery, checkpoints, committer start/stop.
//
// Both are the same reachability question, answered over the shared
// runReach machinery.
var ObsDirectAnalyzer = &Analyzer{
	Name: "obsdirect",
	run: func(pass *pass) {
		runReach(pass, reachConfig{
			isIntrinsic: isObsIntrinsic,
			verb:        "is off-limits on the commit path: resolve direct instrument pointers at construction and keep logging out of safeCommit",
		})
	},
}

// isObsIntrinsic identifies the banned operations: registry instrument
// lookups and structured-logging calls.
func isObsIntrinsic(fn *types.Func) (string, bool) {
	if desc, ok := isRegistryLookup(fn); ok {
		return desc, true
	}
	return isSlogCall(fn)
}

// isRegistryLookup identifies the obs.Registry instrument-lookup methods.
func isRegistryLookup(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil || !pathHasSuffix(pkg.Path(), "internal/obs") {
		return "", false
	}
	if receiverNamed(fn) != "Registry" {
		return "", false
	}
	switch fn.Name() {
	case "Counter", "Gauge", "GaugeFunc", "Histogram", "HistogramBounds":
		return "locks the registry and interns the metric name", true
	}
	return "", false
}

// isSlogCall identifies any call into log/slog — Logger methods, the
// package-level helpers, and handler construction alike. obs.Logger is
// caught transitively: its methods call slog, so they carry the fact.
func isSlogCall(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "log/slog" {
		return "", false
	}
	return "emits a structured log record (formats and allocates)", true
}

// Package core seeds obsdirect violations: registry lookups reachable
// from the commit path, directly, through a deferred closure, and through
// an imported fact; slog calls both direct and through the obs.Logger
// wrapper; plus the construction-time wiring that must stay clean, and a
// suppressed site.
package core

import (
	"log/slog"

	"tintin/internal/lint/testdata/src/obsreg/internal/obs"
	"tintin/internal/lint/testdata/src/obsreg/internal/sched"
)

type Tool struct {
	reg     *obs.Registry
	log     *obs.Logger
	pool    *sched.Pool
	commits *obs.Counter
}

// NewTool resolves direct instrument pointers once: lookups here are the
// intended pattern, and obsdirect must not flag them. Logging at
// construction time is fine too.
func NewTool(reg *obs.Registry) *Tool {
	slog.Info("tool constructed") // cold path: clean
	return &Tool{
		reg:     reg,
		commits: reg.Counter("commits"),
	}
}

func (t *Tool) safeCommit() {
	t.commits.Add(1)                // direct pointer: clean
	t.reg.Counter("commits").Add(1) // want `safeCommit \(commit path via safeCommit\) calls \(\*Registry\)\.Counter .*off-limits on the commit path`
	t.pool.RecordBatch()            // want `safeCommit \(commit path via safeCommit\) calls \(\*Pool\)\.RecordBatch → .*off-limits on the commit path`
	t.pool.RecordBatchDirect()      // resolved pointer behind the call: clean
	slog.Warn("committing")         // want `safeCommit \(commit path via safeCommit\) calls slog\.Warn .*structured log record.*off-limits on the commit path`
	t.log.Info("committing")        // want `safeCommit \(commit path via safeCommit\) calls \(\*Logger\)\.Info → .*structured log record.*off-limits on the commit path`
	defer func() {
		t.reg.Histogram("ns").Observe(1) // want `safeCommit \(commit path via safeCommit\) calls \(\*Registry\)\.Histogram .*off-limits on the commit path`
	}()
}

func (t *Tool) check() {
	//tintin:allow obsdirect one-shot gauge registration on a cold path, measured at +0 allocs
	t.reg.Counter("checks").Add(1)
}

package core

import (
	"time"

	"tintin/internal/engine"
	"tintin/internal/storage"
)

// costModel is the per-view cost estimator guiding the intra-view task
// splitter: an exponentially weighted moving average of each view's
// observed check durations. It is deliberately tiny — commit checks run at
// microsecond scale, so the model must cost nanoseconds — and it needs no
// locking: the check loop observes from the coordinating goroutine, never
// from pool workers.
type costModel struct {
	est map[string]time.Duration
	// parts is splitParts' result scratch, reused across commits.
	parts []int
}

// costAlphaNum/Den is the EWMA weight of a new observation (0.3): heavy
// enough that a workload shift re-ranks views within a few commits, light
// enough that one slow outlier (a GC pause mid-check) does not trigger a
// pointless split storm.
const (
	costAlphaNum = 3
	costAlphaDen = 10
)

// observe folds one measured check duration into the view's estimate.
func (m *costModel) observe(view string, d time.Duration) {
	if m.est == nil {
		m.est = make(map[string]time.Duration)
	}
	old, ok := m.est[view]
	if !ok {
		m.est[view] = d
		return
	}
	m.est[view] = old + (d-old)*costAlphaNum/costAlphaDen
}

// estimate returns the view's current EWMA estimate (0 when the view has
// never been observed — unknown views are never split).
func (m *costModel) estimate(view string) time.Duration {
	return m.est[view]
}

// autoSplitFloor is the smallest partition auto mode will cut: splitting a
// view into ranges worth less than this is all fan-out bookkeeping and no
// overlap, so views cheaper than the floor stay whole even when they
// exceed the fair share (a microsecond-scale check list has nothing to
// parallelize). An explicit positive SplitThreshold bypasses the floor —
// tests and callers that know better cut as fine as they ask.
const autoSplitFloor = 50 * time.Microsecond

// splitParts decides, for each view in the check list, how many partition
// subtasks its check should become. threshold semantics (Options.SplitThreshold):
//
//	< 0 — splitting disabled, every view stays one task
//	  0 — auto: the threshold is the fair share of this check's total
//	      estimated work per worker (no finer than autoSplitFloor), so
//	      exactly the views that would otherwise pin a worker past the
//	      ideal makespan get split
//	> 0 — fixed: views estimated above it split into ceil(est/threshold)
//
// Parts are capped at the worker count — the pool pulls subtasks
// dynamically, so finer cuts add merge overhead without improving the
// makespan — and views with no estimate yet (first check) stay whole. The
// returned slice is valid until the next call.
func (m *costModel) splitParts(checks []viewCheck, workers int, threshold time.Duration) []int {
	parts := m.parts[:0]
	for range checks {
		parts = append(parts, 1)
	}
	m.parts = parts
	if workers <= 1 || threshold < 0 || len(checks) == 0 {
		return parts
	}
	if threshold == 0 {
		var total time.Duration
		for _, c := range checks {
			total += m.estimate(c.view)
		}
		threshold = total / time.Duration(workers)
		if threshold < autoSplitFloor {
			threshold = autoSplitFloor
		}
	}
	for i, c := range checks {
		if est := m.estimate(c.view); est > threshold {
			k := int((est + threshold - 1) / threshold)
			if k > workers {
				k = workers
			}
			parts[i] = k
		}
	}
	return parts
}

// splittable reports whether a check's plan may be partitioned at all: the
// engine must see a partitionable driving scan AND that scan must read a
// pending-event table. Base-table-driven scans are mechanically splittable
// too, but event scans are the paper's delta-driven work — the thing that
// is embarrassingly partitionable by construction — so splitting stays
// scoped to them.
func splittable(p *engine.PreparedQuery) bool {
	tab, ok := p.DrivingScan()
	if !ok {
		return false
	}
	_, _, isEvt := storage.IsEventTable(tab.Name())
	return isEvt
}

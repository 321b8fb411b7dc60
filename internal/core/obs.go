package core

import (
	"tintin/internal/obs"
	"tintin/internal/sched"
)

// batchSizeBounds are the histogram buckets for group-commit batch sizes
// (deltas per batch, not nanoseconds).
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// toolMetrics holds direct pointers to every commit-path metric the tool
// updates, resolved once at construction. Hot-path call sites go through
// these pointers — never through the registry's maps — and every pointer is
// nil when Options.Metrics is unset, so an unwired tool pays one branch per
// site (obs primitives are nil-receiver-safe).
type toolMetrics struct {
	reg *obs.Registry

	commits           *obs.Counter // committed safeCommits
	rejects           *obs.Counter // rejected safeCommits
	violationRows     *obs.Counter // violating tuples reported
	viewsChecked      *obs.Counter // views evaluated
	viewsSkipped      *obs.Counter // views discarded by the emptiness pre-pass
	assertionsSkipped *obs.Counter // assertions discarded whole by the pre-pass
	eventsCancelled   *obs.Counter // ins/del pairs removed by normalization

	safeCommitNS *obs.Histogram // end-to-end safeCommit latency
	checkNS      *obs.Histogram // check-phase latency (the paper's number)
	normalizeNS  *obs.Histogram // event-normalization latency
	applyNS      *obs.Histogram // event-apply latency on commit

	// perView caches each view's check histogram; only the commit
	// coordinator touches the map, so it needs no lock.
	perView map[string]*obs.Histogram
}

// initMetrics resolves every metric pointer and registers the live
// plan-cache gauges. Called from New when Options.Metrics is set.
func (t *Tool) initMetrics(reg *obs.Registry) {
	m := &t.met
	m.reg = reg
	m.commits = reg.Counter("tintin_commits_total")
	m.rejects = reg.Counter("tintin_rejects_total")
	m.violationRows = reg.Counter("tintin_violation_rows_total")
	m.viewsChecked = reg.Counter("tintin_views_checked_total")
	m.viewsSkipped = reg.Counter("tintin_views_skipped_total")
	m.assertionsSkipped = reg.Counter("tintin_assertions_skipped_total")
	m.eventsCancelled = reg.Counter("tintin_events_cancelled_total")
	m.safeCommitNS = reg.Histogram("tintin_safecommit_ns")
	m.checkNS = reg.Histogram("tintin_check_ns")
	m.normalizeNS = reg.Histogram("tintin_normalize_ns")
	m.applyNS = reg.Histogram("tintin_apply_ns")
	m.perView = make(map[string]*obs.Histogram)

	// The engine already counts plan-cache traffic (atomically, see
	// engine.PlanCacheStats); export it as live read-time gauges instead of
	// double-counting on the prepare path.
	reg.GaugeFunc("tintin_plan_cache_hits", func() int64 { return int64(t.eng.PlanCacheStats().Hits) })
	reg.GaugeFunc("tintin_plan_cache_misses", func() int64 { return int64(t.eng.PlanCacheStats().Misses) })
	reg.GaugeFunc("tintin_plan_cache_invalidations", func() int64 { return int64(t.eng.PlanCacheStats().Invalidations) })

	t.pool.SetMetrics(sched.PoolMetrics{
		Tasks:      reg.Counter("tintin_sched_tasks_total"),
		Subtasks:   reg.Counter("tintin_sched_subtasks_total"),
		QueueDepth: reg.Gauge("tintin_sched_queue_depth"),
		BusyNS:     reg.Counter("tintin_sched_worker_busy_ns_total"),
	})
}

// committerMetrics builds the group-commit metric set for NewCommitter
// (zero value when the tool is unwired).
func (t *Tool) committerMetrics() sched.CommitterMetrics {
	if t.met.reg == nil {
		return sched.CommitterMetrics{}
	}
	reg := t.met.reg
	return sched.CommitterMetrics{
		Batches:     reg.Counter("tintin_commit_batches_total"),
		BatchDeltas: reg.Counter("tintin_commit_batch_deltas_total"),
		Deferrals:   reg.Counter("tintin_commit_deferrals_total"),
		BatchSize:   reg.HistogramBounds("tintin_commit_batch_size", batchSizeBounds),
		QueueDepth:  reg.Gauge("tintin_commit_queue_depth"),
	}
}

// registerViewMetrics resolves a view's latency histogram once, at
// assertion-registration time. Doing the registry lookup here keeps the
// commit path, which observes every checked view, lookup-free (the tintinvet
// obsdirect analyzer enforces this).
func (t *Tool) registerViewMetrics(view string) {
	if t.met.reg == nil {
		return
	}
	if _, ok := t.met.perView[view]; ok {
		return
	}
	t.met.perView[view] = t.met.reg.Histogram(obs.Label("tintin_view_check_ns", "view", view))
}

// Metrics returns the registry the tool publishes into (nil when unwired).
func (t *Tool) Metrics() *obs.Registry { return t.met.reg }

// Tracer returns the tool's commit tracer (nil when tracing was not
// configured). Callers use it to flip slow-trace thresholds at runtime or
// drain the ring.
func (t *Tool) Tracer() *obs.Tracer { return t.tracer }

// LastTrace returns a snapshot of the most recent commit trace, or nil
// when tracing is off or nothing has been recorded.
func (t *Tool) LastTrace() *obs.TraceSnapshot { return t.tracer.Last() }

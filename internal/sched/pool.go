// Package sched is the parallel commit-check scheduler: it fans the
// compiled per-assertion check plans of a safeCommit out across a pool of
// workers with private executor state, and provides a group-commit front
// door (Committer) through which concurrent sessions submit update deltas.
//
// The concurrency model is strict: the database is an immutable snapshot
// for the duration of a fan-out (the caller freezes it), every worker owns
// clones of the compiled plans plus its own scratch buffers, and each
// task's outcome lands in that task's slot, so results are deterministic
// regardless of which worker ran what when.
//
// The unit of scheduled work is a view: one Task is one compiled
// incremental view, run whole by one worker. Every view is driven by a
// small event table probing indexes — its cost is linear in the update — so
// the parallelism is across views, never inside one.
package sched

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tintin/internal/engine"
	"tintin/internal/obs"
	"tintin/internal/sqltypes"
)

// Task is one independent commit-check unit: a compiled incremental-view
// plan to execute against the pending events.
type Task struct {
	// Plan is the cached prototype plan (owned by the engine's plan cache);
	// workers execute private clones of it.
	Plan *engine.PreparedQuery
	// Limit caps the rows collected for this task (0 = unlimited): the
	// FailFast accept/reject path, enforced by engine.QueryLimitInto.
	Limit int
}

// Outcome is the result of one task: the rows the view returned (copied out
// of worker scratch, so they stay valid after the next fan-out) or the
// execution error. Outcomes are positionally aligned with the task list.
type Outcome struct {
	Columns []string
	Rows    []sqltypes.Row
	Err     error
	// Duration is the execution time spent on this task.
	Duration time.Duration
}

// Pool runs check tasks across a fixed set of workers. Each worker owns
// persistent executor state — plan clones and a reusable result buffer —
// that survives across RunSpan calls, so steady-state commits allocate no
// per-worker state at all. A Pool must not be shared by concurrent RunSpan
// calls; the committer (or the tool) serializes commits in front of it.
type Pool struct {
	states []*workerState // one per worker
	// tasks and spans (one span per task, empty when the run is untraced) are
	// the current run's schedule, read by every worker; next hands task
	// indexes out, and whichever worker claims task i writes outs[i]. They
	// are scratch reused across RunSpan calls so steady-state commits don't
	// allocate them.
	tasks []Task
	spans []*obs.Span
	outs  []Outcome
	next  atomic.Int64
	wg    sync.WaitGroup

	metrics PoolMetrics
}

// PoolMetrics are the scheduler counters a pool maintains. Every field is
// optional (obs primitives are nil-receiver-safe), so the zero value is a
// fully unwired pool that pays only predictable branches.
type PoolMetrics struct {
	// Tasks counts tasks scheduled across all RunSpan calls.
	Tasks *obs.Counter
	// Subtasks counts the same as Tasks, one per task. It outlived the
	// intra-view splitter, which cut views into several work units, because
	// the transaction benchmark (bench/) still reads its family.
	Subtasks *obs.Counter
	// QueueDepth tracks tasks published but not yet claimed by a worker; it
	// spikes to the fan-out width at the start of each RunSpan and drains to
	// zero as workers pull.
	QueueDepth *obs.Gauge
	// BusyNS accumulates worker execution time (the sum over tasks, not
	// wall time), the numerator of pool utilization.
	BusyNS *obs.Counter
}

// SetMetrics wires the pool's scheduler metrics. Call before RunSpan; the
// zero value unwires.
func (p *Pool) SetMetrics(m PoolMetrics) { p.metrics = m }

type workerState struct {
	clones map[*engine.PreparedQuery]*engine.PreparedQuery
	res    engine.Result
}

// clonesCap bounds the per-worker clone cache; re-prepared views leave
// stale prototype keys behind, so a long-lived pool over a schema-churning
// tool resets the cache rather than growing without bound.
const clonesCap = 256

// NewPool creates a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{states: make([]*workerState, workers)}
	for i := range p.states {
		p.states[i] = &workerState{clones: make(map[*engine.PreparedQuery]*engine.PreparedQuery)}
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.states) }

// run executes one task on this worker's private clone of its plan.
func (st *workerState) run(t Task) (out Outcome) {
	// A panic on a pool goroutine would kill the process (nothing above a
	// worker recovers); surface it as this task's error instead.
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Err: fmt.Errorf("sched: check task panicked: %v", r), Duration: out.Duration}
		}
	}()
	plan, ok := st.clones[t.Plan]
	if !ok {
		if len(st.clones) >= clonesCap {
			st.clones = make(map[*engine.PreparedQuery]*engine.PreparedQuery)
		}
		plan = t.Plan.Clone()
		st.clones[t.Plan] = plan
	}
	start := time.Now()
	err := plan.QueryLimitInto(t.Limit, &st.res)
	out.Duration = time.Since(start)
	if err != nil {
		out.Err = err
		return out
	}
	if len(st.res.Rows) == 0 {
		return out
	}
	// Violations are rare; copy them out of the reusable buffer only then.
	out.Columns = st.res.Columns
	out.Rows = append([]sqltypes.Row(nil), st.res.Rows...)
	return out
}

// RunSpan executes every task and returns their outcomes in task order; the
// returned slice is pool scratch, valid until the next RunSpan. The tasks
// are pulled off a shared counter by the workers — or, when there is a
// single worker or a single task, run right here on the calling goroutine.
// The caller must guarantee the database is quiescent for the duration.
//
// When parent is non-nil, the pool records one child span per task (view,
// worker id, row count). Task spans are pre-created here on the
// coordinator, in task order, before any worker starts; each worker then
// fills only its own spans, so the span tree needs no locking and its shape
// does not depend on scheduling. A nil parent skips all span work.
func (p *Pool) RunSpan(tasks []Task, parent *obs.Span) []Outcome {
	p.tasks = tasks
	p.outs = slices.Grow(p.outs[:0], len(tasks))[:len(tasks)]

	p.metrics.Tasks.Add(int64(len(tasks)))
	p.metrics.Subtasks.Add(int64(len(tasks)))

	p.spans = p.spans[:0]
	if parent != nil {
		for _, t := range tasks {
			sp := parent.Child("task")
			sp.SetAttr("view", t.Plan.Name())
			p.spans = append(p.spans, sp)
		}
	}

	p.metrics.QueueDepth.Set(int64(len(tasks)))
	if nw := min(len(p.states), len(tasks)); nw <= 1 {
		// Nothing to fan out (or a single worker): run everything here and
		// skip the goroutine machinery.
		for i := range tasks {
			p.runOne(p.states[0], 0, i)
		}
	} else {
		p.next.Store(0)
		p.wg.Add(nw)
		for w := 0; w < nw; w++ {
			go p.work(w)
		}
		p.wg.Wait()
	}
	return p.outs
}

// work is one worker goroutine of a fan-out: it claims task indexes off the
// shared counter until the schedule is exhausted.
func (p *Pool) work(w int) {
	defer p.wg.Done()
	for {
		i := int(p.next.Add(1) - 1)
		if i >= len(p.tasks) {
			return
		}
		p.runOne(p.states[w], w, i)
	}
}

// runOne executes task i of the current schedule on worker w's state,
// writing only outs[i] and spans[i].
func (p *Pool) runOne(st *workerState, w, i int) {
	t := p.tasks[i]
	p.metrics.QueueDepth.Add(-1)
	var sp *obs.Span
	if len(p.spans) > 0 {
		sp = p.spans[i]
		sp.Begin()
	}
	p.outs[i] = st.run(t)
	p.metrics.BusyNS.Add(int64(p.outs[i].Duration))
	sp.SetAttrInt("worker", int64(w))
	sp.SetAttrInt("rows", int64(len(p.outs[i].Rows)))
	sp.End()
}

// Package sched is the parallel commit-check scheduler: it fans the
// compiled per-assertion check plans of a safeCommit out across a pool of
// workers with private executor state, and provides a group-commit front
// door (Committer) through which concurrent sessions submit update deltas.
//
// The concurrency model is strict: the database is an immutable snapshot
// for the duration of a fan-out (the caller freezes it), every worker owns
// clones of the compiled plans plus its own scratch buffers, and violation
// output is merged back in task order, so results are deterministic
// regardless of which worker ran what when.
//
// The unit of scheduled work is a view *partition*, not a view: a task may
// ask for its plan's driving scan to be split into K disjoint row ranges
// (Task.Parts), each running as its own subtask, so a single hot view
// saturates every worker instead of pinning one. Partition outputs are
// merged back in range order, which makes the split invisible to callers —
// one Outcome per Task, bit-identical to an unsplit run.
package sched

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tintin/internal/engine"
	"tintin/internal/obs"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// Task is one independent commit-check unit: a compiled incremental-view
// plan to execute against the pending events.
type Task struct {
	// Plan is the cached prototype plan (owned by the engine's plan cache);
	// workers execute private clones of it.
	Plan *engine.PreparedQuery
	// Parts asks for this task's driving scan to be split into that many
	// row-range partitions, each scheduled as its own subtask; the partial
	// outputs are merged back in partition order, so the caller still
	// receives a single Outcome identical to an unsplit run. Parts <= 1, a
	// plan with no driving scan (engine.PreparedQuery.DrivingScan), or a
	// driving table too small to cut leaves the task whole.
	Parts int
	// Limit caps the rows collected for this task (0 = unlimited): the
	// FailFast accept/reject path. The cap is enforced per partition during
	// execution and again at the merge, so a split task returns exactly the
	// rows a serial limited run would.
	Limit int
}

// Outcome is the result of one task: the rows the view returned (copied out
// of worker scratch, so they stay valid after the next fan-out) or the
// execution error. Outcomes are positionally aligned with the task list —
// the deterministic merge order.
type Outcome struct {
	Columns []string
	Rows    []sqltypes.Row
	Err     error
	// Duration is the execution time spent on this task — for a split task
	// the sum over its partitions (the view's total work, not its wall
	// time). It feeds the caller's per-view cost model.
	Duration time.Duration
}

// subtask is the pool's internal unit of scheduled work: one whole task or
// one partition of a split task.
type subtask struct {
	task  int // index into the RunSpan tasks
	part  storage.RowRange
	split bool
}

// Pool runs check tasks across a fixed set of workers. Each worker owns
// persistent executor state — plan clones and a reusable result buffer —
// that survives across RunSpan calls, so steady-state commits allocate no
// per-worker state at all. A Pool must not be shared by concurrent RunSpan
// calls; the committer (or the tool) serializes commits in front of it.
type Pool struct {
	states []*workerState // one per worker
	// tasks, subs, partials and spans (one span per subtask, empty when the
	// run is untraced) are the current run's schedule, read by every worker;
	// next hands subtask indexes out. They and outs are scratch reused across
	// RunSpan calls so steady-state commits don't allocate them.
	tasks    []Task
	subs     []subtask
	partials []Outcome
	spans    []*obs.Span
	outs     []Outcome
	next     atomic.Int64
	wg       sync.WaitGroup

	metrics    PoolMetrics
	profLabels bool
}

// PoolMetrics are the scheduler counters a pool maintains. Every field is
// optional (obs primitives are nil-receiver-safe), so the zero value is a
// fully unwired pool that pays only predictable branches.
type PoolMetrics struct {
	// Tasks counts tasks scheduled across all RunSpan calls.
	Tasks *obs.Counter
	// TasksSplit counts tasks whose driving scan was actually partitioned.
	TasksSplit *obs.Counter
	// Subtasks counts scheduled work units: whole tasks and individual
	// partitions of split tasks.
	Subtasks *obs.Counter
	// QueueDepth tracks subtasks published but not yet claimed by a
	// worker; it spikes to the fan-out width at the start of each RunSpan and
	// drains to zero as workers pull.
	QueueDepth *obs.Gauge
	// BusyNS accumulates worker execution time (the sum over subtasks, not
	// wall time), the numerator of pool utilization.
	BusyNS *obs.Counter
}

// SetMetrics wires the pool's scheduler metrics. Call before RunSpan; the
// zero value unwires.
func (p *Pool) SetMetrics(m PoolMetrics) { p.metrics = m }

// SetProfileLabels toggles pprof labels on subtask execution, so CPU
// profiles attribute worker samples to view and partition. Off by default:
// label application allocates, which traced hot paths must not.
func (p *Pool) SetProfileLabels(on bool) { p.profLabels = on }

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

// runSub executes one subtask on this worker's private clone of the task's
// plan and returns its partial outcome.
func (st *workerState) runSub(t Task, sub subtask) (out Outcome) {
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
	var err error
	if sub.split {
		err = plan.QueryPartitionInto(sub.part, t.Limit, &st.res)
	} else {
		err = plan.QueryLimitInto(t.Limit, &st.res)
	}
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

// expand turns the task list into the subtask schedule, split tasks
// contributing one subtask per driving-scan partition. Expansion runs on
// the coordinator before any worker starts, so the read-only Partitions
// call sees the same quiescent table state the workers will.
func (p *Pool) expand(tasks []Task) {
	subs := p.subs[:0]
	for i, t := range tasks {
		if t.Parts > 1 {
			if tab, ok := t.Plan.DrivingScan(); ok {
				if ranges := tab.Partitions(t.Parts); len(ranges) > 1 {
					for _, r := range ranges {
						subs = append(subs, subtask{task: i, part: r, split: true})
					}
					continue
				}
			}
		}
		subs = append(subs, subtask{task: i})
	}
	p.tasks, p.subs = tasks, subs
}

// merge folds the partial outcomes (aligned with subs) back into one
// Outcome per task: rows concatenate in partition order — the deterministic
// serial order — durations sum, the first error in partition order wins and
// clears that task's rows, and Limit is re-applied across the whole task so
// a split FailFast check returns exactly the serial prefix.
func merge(tasks []Task, subs []subtask, partials []Outcome, outs []Outcome) {
	for si, sub := range subs {
		pr := &partials[si]
		o := &outs[sub.task]
		o.Duration += pr.Duration
		if o.Err != nil {
			continue
		}
		if pr.Err != nil {
			o.Err = pr.Err
			o.Columns, o.Rows = nil, nil
			continue
		}
		if len(pr.Rows) == 0 {
			continue
		}
		if o.Columns == nil {
			o.Columns = pr.Columns
		}
		if o.Rows == nil {
			o.Rows = pr.Rows
		} else {
			o.Rows = append(o.Rows, pr.Rows...)
		}
	}
	for i, t := range tasks {
		if t.Limit > 0 && len(outs[i].Rows) > t.Limit {
			outs[i].Rows = outs[i].Rows[:t.Limit]
		}
	}
}

// cleared returns s resized to n zeroed outcomes (stale results from the
// previous run), reallocating only to grow.
func cleared(s []Outcome, n int) []Outcome {
	if cap(s) < n {
		return make([]Outcome, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = Outcome{}
	}
	return s
}

// RunSpan executes every task and returns their outcomes in task order; the
// returned slice is pool scratch, valid until the next RunSpan. The subtasks
// (whole tasks and partitions of split tasks) are pulled off a shared
// counter by the workers — or, when there is a single worker or a single
// subtask, run right here on the calling goroutine. The caller must
// guarantee the database is quiescent for the duration.
//
// When parent is non-nil, the pool records one child span per scheduled
// subtask (view, lane=whole|split, partition bounds, worker id, row count)
// plus a merge span. Subtask spans are pre-created here on the coordinator,
// in deterministic subtask order, before any worker starts; each worker then
// fills only its own spans, so the span tree needs no locking and its shape
// does not depend on scheduling. A nil parent skips all span work.
func (p *Pool) RunSpan(tasks []Task, parent *obs.Span) []Outcome {
	p.expand(tasks)
	p.outs = cleared(p.outs, len(tasks))
	p.partials = cleared(p.partials, len(p.subs))

	p.metrics.Tasks.Add(int64(len(tasks)))
	p.metrics.Subtasks.Add(int64(len(p.subs)))
	if p.metrics.TasksSplit != nil {
		for si, sub := range p.subs {
			if sub.split && (si == 0 || p.subs[si-1].task != sub.task) {
				p.metrics.TasksSplit.Inc()
			}
		}
	}

	p.spans = p.spans[:0]
	if parent != nil {
		for _, sub := range p.subs {
			sp := parent.Child("task")
			sp.SetAttr("view", tasks[sub.task].Plan.Name())
			if sub.split {
				sp.SetAttr("lane", "split")
				sp.SetAttrInt("part_start", int64(sub.part.Start))
				sp.SetAttrInt("part_end", int64(sub.part.End))
			} else {
				sp.SetAttr("lane", "whole")
			}
			p.spans = append(p.spans, sp)
		}
	}

	p.metrics.QueueDepth.Set(int64(len(p.subs)))
	if nw := min(len(p.states), len(p.subs)); nw <= 1 {
		// Nothing to fan out (or a single worker): run everything here and
		// skip the goroutine machinery.
		for i := range p.subs {
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
	ms := parent.Child("merge")
	merge(tasks, p.subs, p.partials, p.outs)
	ms.End()
	return p.outs
}

// work is one worker goroutine of a fan-out: it claims subtask indexes off
// the shared counter until the schedule is exhausted.
func (p *Pool) work(w int) {
	defer p.wg.Done()
	for {
		i := int(p.next.Add(1) - 1)
		if i >= len(p.subs) {
			return
		}
		p.runOne(p.states[w], w, i)
	}
}

// runOne executes subtask i of the current schedule on worker w's state,
// writing only partials[i] and spans[i].
func (p *Pool) runOne(st *workerState, w, i int) {
	sub := p.subs[i]
	t := p.tasks[sub.task]
	p.metrics.QueueDepth.Add(-1)
	var sp *obs.Span
	if len(p.spans) > 0 {
		sp = p.spans[i]
		sp.Begin()
	}
	if p.profLabels {
		lbls := pprof.Labels("view", t.Plan.Name(), "partition", strconv.Itoa(sub.part.Start))
		pprof.Do(context.Background(), lbls, func(context.Context) {
			p.partials[i] = st.runSub(t, sub)
		})
	} else {
		p.partials[i] = st.runSub(t, sub)
	}
	p.metrics.BusyNS.Add(int64(p.partials[i].Duration))
	sp.SetAttrInt("worker", int64(w))
	sp.SetAttrInt("rows", int64(len(p.partials[i].Rows)))
	sp.End()
}

package sched

import (
	"errors"
	"fmt"
	"sync"

	"tintin/internal/obs"
	"tintin/internal/sqltypes"
)

// Op is one row-level change a session proposes: an insertion or a deletion
// of exactly this row. An inserted Row is handed to storage uncopied and
// becomes the stored row (see storage.DB on row ownership), so the session
// must not change it once it has proposed the Op.
type Op struct {
	Table  string
	Row    sqltypes.Row
	Delete bool
}

// Delta is one session's proposed update: the unit of atomicity the
// committer acks individually.
type Delta struct {
	Ops []Op
}

// Ack is one delta's verdict from a BatchFunc: its result, or its own
// failure (a malformed op, say) that should not take the rest of the batch
// down with it.
type Ack[R any] struct {
	Res R
	Err error
}

// BatchFunc checks-and-commits one batch of deltas, returning one ack per
// delta in order; a returned error is systemic and fails every session in
// the batch. The committer guarantees batches are handed over one at a
// time (never concurrently) and that deltas within a batch are pairwise
// compatible (disjoint conflict keys).
type BatchFunc[R any] func(batch []Delta) ([]Ack[R], error)

// ErrCommitterClosed is returned by Commit after Close.
var ErrCommitterClosed = errors.New("sched: committer is closed")

// maxBatch caps how many deltas one batch may carry.
const maxBatch = 64

// CommitterMetrics are the group-commit counters a committer maintains.
// Every field is optional (obs primitives are nil-receiver-safe); the zero
// value unwires them all.
type CommitterMetrics struct {
	// Batches counts batches handed to the BatchFunc.
	Batches *obs.Counter
	// BatchDeltas counts deltas carried by those batches; BatchDeltas /
	// Batches is the realized group-commit amplification.
	BatchDeltas *obs.Counter
	// Deferrals counts deltas pushed to a later batch because their conflict
	// keys collided with an earlier queued delta.
	Deferrals *obs.Counter
	// BatchSize distributes the per-batch delta count.
	BatchSize *obs.Histogram
	// QueueDepth tracks deltas enqueued but not yet handed to the BatchFunc.
	QueueDepth *obs.Gauge
}

// Committer is the group-commit front door: concurrent sessions enqueue
// deltas via Commit, a leader batches compatible deltas and hands each
// batch to the BatchFunc in one pass, and every session is acked with its
// own result. Leadership is claimed by whichever session finds the queue
// unled and is relinquished when the queue drains, so there is no
// background goroutine while the committer is idle.
type Committer[R any] struct {
	run     BatchFunc[R]
	keyFn   func(Op) []string
	metrics CommitterMetrics
	logger  *obs.Logger

	mu      sync.Mutex
	queue   []*pending[R]
	leading bool
	closed  bool
}

type pending[R any] struct {
	delta Delta
	keys  []string
	done  chan commitOutcome[R]
}

type commitOutcome[R any] struct {
	res R
	err error
}

// NewCommitter creates a committer over run. keyFn returns an op's
// conflict keys: two deltas sharing any key never ride in the same batch,
// so same-key writes serialize in submission order. metrics may be the zero
// value. logger (nil disables it) gets lifecycle events only: leader
// step-up/step-down at debug, close and systemic batch failures at
// info/error; the per-delta fast path (Commit enqueue, batch cutting) never
// logs.
func NewCommitter[R any](run BatchFunc[R], keyFn func(Op) []string, metrics CommitterMetrics, logger *obs.Logger) *Committer[R] {
	return &Committer[R]{run: run, keyFn: keyFn, metrics: metrics, logger: logger}
}

// Commit submits one delta and blocks until the batch it rode in has been
// checked, returning this session's own result.
func (c *Committer[R]) Commit(d Delta) (R, error) {
	var zero R
	p := &pending[R]{delta: d, done: make(chan commitOutcome[R], 1)}
	for _, op := range d.Ops {
		p.keys = append(p.keys, c.keyFn(op)...)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero, ErrCommitterClosed
	}
	c.queue = append(c.queue, p)
	c.metrics.QueueDepth.Add(1)
	lead := !c.leading
	if lead {
		c.leading = true
	}
	c.mu.Unlock()
	if lead {
		go c.lead()
	}
	out := <-p.done
	return out.res, out.err
}

// Close rejects future Commit calls. Deltas already enqueued are still
// processed by the active leader.
func (c *Committer[R]) Close() {
	c.mu.Lock()
	c.closed = true
	queued := len(c.queue)
	c.mu.Unlock()
	c.logger.Info("committer: closed", "queued", queued)
}

// lead drains the queue batch by batch, then steps down.
func (c *Committer[R]) lead() {
	c.logger.Debug("committer: leader stepping up")
	served := 0
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.leading = false
			c.mu.Unlock()
			c.logger.Debug("committer: leader stepping down", "batches_served", served)
			return
		}
		batch := c.cutBatch()
		c.mu.Unlock()

		deltas := make([]Delta, len(batch))
		for i, p := range batch {
			deltas[i] = p.delta
		}
		acks, err := c.safeRun(deltas)
		if err == nil && len(acks) != len(batch) {
			err = fmt.Errorf("sched: batch func returned %d acks for %d deltas", len(acks), len(batch))
		}
		if err != nil {
			c.logger.Error("committer: batch failed systemically", "deltas", len(batch), "err", err.Error())
		}
		served++
		for i, p := range batch {
			if err != nil {
				p.done <- commitOutcome[R]{err: err}
			} else {
				p.done <- commitOutcome[R]{res: acks[i].Res, err: acks[i].Err}
			}
		}
	}
}

// safeRun shields the leader from a panicking BatchFunc: an unrecovered
// panic would kill the leader with sessions parked on their done channels
// and `leading` stuck true, wedging the committer (and the process).
// Converting it to a systemic error fails the batch loudly and lets the
// leader keep draining.
func (c *Committer[R]) safeRun(deltas []Delta) (acks []Ack[R], err error) {
	defer func() {
		if r := recover(); r != nil {
			acks, err = nil, fmt.Errorf("sched: batch func panicked: %v", r)
		}
	}()
	return c.run(deltas)
}

// cutBatch (called with mu held) removes and returns the next batch: the
// queue head plus every queued delta compatible with it, in arrival order,
// up to maxBatch. Conflicting deltas keep their queue position and ride a
// later batch; a deferred delta also reserves its keys, so anything
// conflicting with *it* is deferred too — same-key writes serialize in
// submission order, never jumping over an earlier conflicting delta.
func (c *Committer[R]) cutBatch() []*pending[R] {
	taken := make(map[string]bool)
	var batch []*pending[R]
	rest := c.queue[:0]
	for _, p := range c.queue {
		if len(batch) < maxBatch && !conflicts(taken, p.keys) {
			batch = append(batch, p)
		} else {
			rest = append(rest, p)
			c.metrics.Deferrals.Inc()
		}
		for _, k := range p.keys {
			taken[k] = true
		}
	}
	c.queue = rest
	m := &c.metrics
	m.Batches.Inc()
	m.BatchDeltas.Add(int64(len(batch)))
	m.BatchSize.Observe(int64(len(batch)))
	m.QueueDepth.Add(-int64(len(batch)))
	return batch
}

func conflicts(taken map[string]bool, keys []string) bool {
	for _, k := range keys {
		if taken[k] {
			return true
		}
	}
	return false
}

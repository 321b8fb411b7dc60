package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tintin/internal/sqltypes"
)

func iv(n int64) sqltypes.Value { return sqltypes.NewInt(n) }

// rowKey is the conflict-key function of the tests: table plus full-row
// identity.
func rowKey(op Op) []string { return []string{op.Table + "\x00" + op.Row.Key()} }

func newCommitter(run BatchFunc[int]) *Committer[int] {
	return NewCommitter(run, rowKey, CommitterMetrics{}, nil)
}

func delta(table string, ids ...int64) Delta {
	var d Delta
	for _, id := range ids {
		d.Ops = append(d.Ops, Op{Table: table, Row: sqltypes.Row{iv(id)}})
	}
	return d
}

// TestCommitterBatches: concurrent sessions with disjoint writes are
// served in far fewer batch calls than sessions, and every session gets
// its own ack.
func TestCommitterBatches(t *testing.T) {
	var calls, total atomic.Int64
	var inFlight atomic.Int64
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		if inFlight.Add(1) != 1 {
			t.Error("batches handed over concurrently")
		}
		defer inFlight.Add(-1)
		calls.Add(1)
		total.Add(int64(len(batch)))
		acks := make([]Ack[int], len(batch))
		for i, d := range batch {
			acks[i] = Ack[int]{Res: int(d.Ops[0].Row[0].Int())}
		}
		return acks, nil
	})

	const n = 64
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			res, err := c.Commit(delta("t", s))
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			if res != int(s) {
				t.Errorf("session %d acked with %d", s, res)
			}
		}(int64(s))
	}
	wg.Wait()
	if got := total.Load(); got != n {
		t.Fatalf("processed %d deltas, want %d", got, n)
	}
	if calls.Load() == n {
		t.Log("no batching happened (all singleton batches); timing-dependent but worth noting")
	}
}

// TestCommitterConflictsSerialize: deltas sharing a conflict key never
// ride in the same batch.
func TestCommitterConflictsSerialize(t *testing.T) {
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		seen := map[string]bool{}
		for _, d := range batch {
			for _, op := range d.Ops {
				k := op.Row.Key()
				if seen[k] {
					t.Errorf("conflicting deltas in one batch (key %q)", k)
				}
				seen[k] = true
			}
		}
		return make([]Ack[int], len(batch)), nil
	})
	var wg sync.WaitGroup
	for s := 0; s < 32; s++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			// Everyone writes row 7 plus one private row.
			if _, err := c.Commit(delta("t", 7, 100+s)); err != nil {
				t.Error(err)
			}
		}(int64(s))
	}
	wg.Wait()
}

// TestCommitterPerDeltaAcks: a per-delta failure reaches only its own
// session; a systemic error reaches every session in the batch.
func TestCommitterPerDeltaAcks(t *testing.T) {
	bad := errors.New("bad delta")
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		acks := make([]Ack[int], len(batch))
		for i, d := range batch {
			if d.Ops[0].Row[0].Int() < 0 {
				acks[i].Err = bad
			} else {
				acks[i].Res = 1
			}
		}
		return acks, nil
	})
	if _, err := c.Commit(delta("t", -5)); !errors.Is(err, bad) {
		t.Fatalf("bad delta acked with err=%v, want %v", err, bad)
	}
	if res, err := c.Commit(delta("t", 5)); err != nil || res != 1 {
		t.Fatalf("good delta acked with (%d, %v)", res, err)
	}
}

// TestCutBatchPreservesConflictOrder: a delta deferred for conflicting
// with the batch reserves its keys, so a later delta conflicting with the
// *deferred* one (but not with the batch) must not jump ahead of it.
func TestCutBatchPreservesConflictOrder(t *testing.T) {
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		return make([]Ack[int], len(batch)), nil
	})
	mk := func(ids ...int64) *pending[int] {
		p := &pending[int]{delta: delta("t", ids...), done: make(chan commitOutcome[int], 1)}
		for _, op := range p.delta.Ops {
			p.keys = append(p.keys, c.keyFn(op)...)
		}
		return p
	}
	a := mk(1)
	b := mk(1, 2) // conflicts with a (key 1)
	d := mk(2)    // conflicts with b (key 2) but not with a
	c.queue = []*pending[int]{a, b, d}
	batch := c.cutBatch()
	if len(batch) != 1 || batch[0] != a {
		t.Fatalf("batch should be exactly [a], got %d deltas", len(batch))
	}
	if len(c.queue) != 2 || c.queue[0] != b || c.queue[1] != d {
		t.Fatalf("deferred queue should be [b, d] in order, got %d entries", len(c.queue))
	}
}

// TestCommitterSurvivesPanic: a panicking BatchFunc fails its batch with
// an error instead of wedging the leader; the committer keeps serving.
func TestCommitterSurvivesPanic(t *testing.T) {
	boom := true
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		if boom {
			panic("kaboom")
		}
		return make([]Ack[int], len(batch)), nil
	})
	if _, err := c.Commit(delta("t", 1)); err == nil {
		t.Fatal("panicking batch acked without error")
	}
	boom = false
	if _, err := c.Commit(delta("t", 2)); err != nil {
		t.Fatalf("committer wedged after a batch panic: %v", err)
	}
}

// TestCommitterClosed: Commit after Close is rejected.
func TestCommitterClosed(t *testing.T) {
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		return make([]Ack[int], len(batch)), nil
	})
	c.Close()
	if _, err := c.Commit(delta("t", 1)); !errors.Is(err, ErrCommitterClosed) {
		t.Fatalf("got %v, want ErrCommitterClosed", err)
	}
}

// TestCommitterMaxBatch: while the leader is blocked in a first batch,
// more than maxBatch deltas queue up; they then drain in batches of at
// most maxBatch, and one batch is full.
func TestCommitterMaxBatch(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var sizes []int // only the leader appends, and batches never overlap
	c := newCommitter(func(batch []Delta) ([]Ack[int], error) {
		sizes = append(sizes, len(batch))
		if len(sizes) == 1 {
			close(entered)
			<-release
		}
		return make([]Ack[int], len(batch)), nil
	})
	var wg sync.WaitGroup
	commit := func(s int64) {
		defer wg.Done()
		if _, err := c.Commit(delta("t", s)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go commit(0)
	<-entered
	const queued = maxBatch + 36
	for s := 1; s <= queued; s++ {
		wg.Add(1)
		go commit(int64(s))
	}
	for {
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n == queued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	full := false
	for _, n := range sizes {
		if n > maxBatch {
			t.Errorf("batch of %d exceeds cap %d", n, maxBatch)
		}
		full = full || n == maxBatch
	}
	if !full {
		t.Errorf("no batch reached the cap %d: sizes %v", maxBatch, sizes)
	}
}

package core

import (
	"strings"

	"tintin/internal/obs"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
)

// NewCommitter returns the group-commit front door for this tool:
// concurrent sessions call Commit with a delta of row-level ops, the
// committer batches compatible deltas (disjoint row-identity and
// primary-key write sets), checks a batch in one safeCommit pass, and acks
// every session with its own per-assertion verdicts. A rejected batch is
// split in half until each verdict is exact: every session learns whether
// its own update was the violating one, and clean sessions still commit.
//
// All staging and checking runs on the committer's leader, one batch at a
// time, so sessions never touch the database concurrently; while a tool is
// serving a committer, updates must go through it (a direct SafeCommit
// would race the leader and is truncated away by the next batch anyway).
func (t *Tool) NewCommitter() *sched.Committer[*CommitResult] {
	return sched.NewCommitter(t.commitBatch, t.conflictKeys, t.committerMetrics(), t.opts.Logger)
}

// conflictKeys keys an op by full-row identity and, when the table declares
// a primary key, by that key too: two sessions writing the same row or the
// same PK never share a batch, so their outcomes serialize in submission
// order instead of colliding inside one check. Table names are lowercased
// to match storage's resolution, so case-variant spellings still conflict.
func (t *Tool) conflictKeys(op sched.Op) []string {
	table := strings.ToLower(op.Table)
	keys := []string{table + "\x00" + op.Row.Key()}
	if tb := t.db.Table(table); tb != nil {
		s := tb.Schema()
		if pk := s.PrimaryKeyOffsets(); len(pk) > 0 && len(op.Row) == len(s.Columns) {
			keys = append(keys, table+"\x01"+op.Row.KeyOn(pk))
		}
	}
	return keys
}

// commitBatch is the committer's BatchFunc: it commits the batch through
// commitSplit, so a clean batch costs one check and one rejected delta among
// n costs 1 + 2⌈log2 n⌉. Deltas resolve in submission order, each with the
// verdict it would get alone after the deltas before it committed.
func (t *Tool) commitBatch(batch []sched.Delta) ([]sched.Ack[*CommitResult], error) {
	// The committer's leader recovers panics and keeps serving, so a panic
	// escaping mid-commit must not leave this batch's staged events behind
	// to be silently committed under the next batch. (Any check-time
	// freeze has already been lifted by WhileFrozen's deferred thaw by the
	// time this unwinds.)
	defer func() {
		if r := recover(); r != nil {
			t.db.TruncateEvents()
			panic(r)
		}
	}()
	// One trace per batch: every commit below is handed its root span and
	// nests under it, so a slow batch shows its whole decomposition in a
	// single span tree. With tracing off the span is nil and every call on
	// it is a no-op.
	trace := t.tracer.Start("commit_batch")
	defer trace.Finish()
	span := trace.Root()
	span.SetAttrInt("deltas", int64(len(batch)))
	acks := make([]sched.Ack[*CommitResult], len(batch))
	t.commitSplit(span, batch, acks)
	return acks, nil
}

// commitSplit commits batch as one unit and writes a verdict per delta into
// acks. A clean unit commits and every delta gets its own copy of the
// result; a unit of one delta keeps its verdict or error; any other unit is
// split in half and each half is committed in turn, left half first. span
// is the batch span the commits nest under (nil when tracing is off).
func (t *Tool) commitSplit(span *obs.Span, batch []sched.Delta, acks []sched.Ack[*CommitResult]) {
	res, err := t.commitUnit(span, batch)
	switch {
	case len(batch) == 1:
		acks[0] = sched.Ack[*CommitResult]{Res: res, Err: err}
	case err == nil && res.Committed:
		// Each session gets its own copy — deep where mutable — so it may
		// mutate its result (zero a duration, annotate) without racing
		// another goroutine.
		for i := range acks {
			acks[i].Res = copyResult(res)
		}
	default:
		mid := len(batch) / 2
		t.commitSplit(span, batch[:mid], acks[:mid])
		t.commitSplit(span, batch[mid:], acks[mid:])
	}
}

// commitUnit stages the deltas and safeCommits them as one update (the
// event tables are empty on entry). A rejection truncates the events
// itself; a staging or commit error — a malformed op, or an apply error
// such as a duplicate primary key, which leaves the base tables untouched —
// must not leak staged events into the next pass, so it rewinds them here.
func (t *Tool) commitUnit(span *obs.Span, batch []sched.Delta) (*CommitResult, error) {
	for _, d := range batch {
		if err := t.stageDelta(d); err != nil {
			t.db.TruncateEvents()
			return nil, err
		}
	}
	res, err := t.safeCommitUnder(span)
	if err != nil {
		t.db.TruncateEvents()
		return nil, err
	}
	return res, nil
}

// copyResult returns a session-private copy of a shared commit result: the
// header is copied by value and the mutable ViewDurations slice gets its
// own backing array, so concurrent sessions normalizing their acks (zeroing
// durations, say) never write the same memory.
func copyResult(res *CommitResult) *CommitResult {
	r := *res
	r.ViewDurations = append([]ViewDuration(nil), res.ViewDurations...)
	return &r
}

// stageDelta applies a delta's ops through the capture layer: an insert's
// row lands in ins_T itself, and a delete stages the matched base rows in
// del_T (see storage.DB on row ownership). Deleting a row that does not
// exist is a no-op, like DELETE ... WHERE matching nothing.
func (t *Tool) stageDelta(d sched.Delta) error {
	for _, op := range d.Ops {
		if op.Delete {
			row := op.Row
			if _, err := t.db.DeleteWhere(op.Table, func(r sqltypes.Row) bool {
				return sqltypes.IdenticalRows(r, row)
			}); err != nil {
				return err
			}
			continue
		}
		if err := t.db.Insert(op.Table, op.Row); err != nil {
			return err
		}
	}
	return nil
}

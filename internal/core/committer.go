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
// every session with its own per-assertion verdicts. When a batch is
// rejected, the deltas are re-checked individually so each session learns
// whether its own update was the violating one — clean sessions still
// commit.
//
// All staging and checking runs on the committer's leader, one batch at a
// time, so sessions never touch the database concurrently; while a tool is
// serving a committer, updates must go through it (a direct SafeCommit
// would race the leader and is truncated away by the next batch anyway).
func (t *Tool) NewCommitter(opts ...sched.CommitterOption) *sched.Committer[*CommitResult] {
	base := []sched.CommitterOption{sched.WithKeyFn(t.conflictKeys), sched.WithMetrics(t.committerMetrics()), sched.WithLogger(t.opts.Logger)}
	return sched.NewCommitter(t.commitBatch, append(base, opts...)...)
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

// commitBatch is the committer's BatchFunc: stage everything, check once,
// and on rejection attribute the violating rows back to the contributing
// deltas, so only the implicated deltas pay an individual re-check while
// the rest commit together in one more pass.
func (t *Tool) commitBatch(batch []sched.Delta) ([]sched.Ack[*CommitResult], error) {
	// The committer's leader recovers panics and keeps serving, so a panic
	// escaping mid-commit must not leave this batch's staged events behind
	// to be silently committed under the next batch. (Any check-time
	// freeze has already been thawed by its own deferred Thaw by the time
	// this unwinds.)
	defer func() {
		if r := recover(); r != nil {
			t.db.TruncateEvents()
			panic(r)
		}
	}()
	// One trace per batch: the commits below (group pass, attribution
	// re-checks) are handed its root span and nest under it, so a slow batch
	// shows its whole decomposition in a single span tree. With tracing off
	// the span is nil and every call on it is a no-op.
	trace := t.tracer.Start("commit_batch")
	defer trace.Finish()
	span := trace.Root()
	span.SetAttrInt("deltas", int64(len(batch)))
	acks := make([]sched.Ack[*CommitResult], len(batch))
	if len(batch) > 1 {
		if err := t.stageDeltas(batch); err != nil {
			// A malformed op poisoned the shared staging; rewind and let the
			// individual pass pin the failure on its own delta.
			t.db.TruncateEvents()
		} else {
			res, err := t.safeCommitUnder(span)
			if err != nil {
				// A batch apply error (e.g. one delta inserting a duplicate
				// primary key) leaves the database untouched — ApplyEvents
				// is all-or-nothing — so rewind the events and let the
				// individual pass below attribute the failure to its own
				// delta while the clean sessions still commit.
				t.db.TruncateEvents()
			} else if res.Committed {
				// The whole batch is clean: one check paid for all sessions.
				// Each session gets its own copy — deep where mutable — so it
				// may mutate its result (zero a duration, annotate) without
				// racing another goroutine; committed results carry no
				// violation slices, but ViewDurations must not be shared.
				for i := range acks {
					acks[i].Res = copyResult(res)
				}
				return acks, nil
			} else {
				// Rejected: some delta is guilty. Attribute instead of
				// falling straight back to O(batch) individual re-checks.
				t.resolveRejected(span, batch, res, acks)
				return acks, nil
			}
		}
	}
	t.commitEach(span, batch, acks, nil)
	return acks, nil
}

// commitEach runs the per-delta fallback over the indexes in idx (nil =
// every delta), writing each verdict into acks. span is the batch span the
// commits nest under (nil when tracing is off), here and below.
func (t *Tool) commitEach(span *obs.Span, batch []sched.Delta, acks []sched.Ack[*CommitResult], idx []int) {
	if idx == nil {
		idx = make([]int, len(batch))
		for i := range idx {
			idx[i] = i
		}
	}
	for _, i := range idx {
		res, err := t.commitOne(span, batch[i])
		acks[i] = sched.Ack[*CommitResult]{Res: res, Err: err}
	}
}

// resolveRejected handles a rejected batch check: the violating rows are
// attributed back to the deltas whose write sets they implicate, those
// deltas are re-checked individually (accurate per-session verdicts), and
// the non-implicated remainder commits together in a single group pass —
// clean sessions pay one shared check instead of one each. Attribution is
// a heuristic with a correctness backstop on both sides: a false positive
// only costs an extra individual check, and if the "clean" remainder still
// rejects as a group (a false negative hid the guilty delta), it falls
// back to the per-delta pass. The remainder commits first, so an
// implicated delta's re-check sees the clean sessions' effects — the same
// serialization the old full fallback converged to.
func (t *Tool) resolveRejected(span *obs.Span, batch []sched.Delta, res *CommitResult, acks []sched.Ack[*CommitResult]) {
	as := span.Child("attribution")
	keys := violationKeySet(res.Violations)
	var implicated, rest []int
	for i := range batch {
		if t.deltaImplicated(batch[i], keys) {
			implicated = append(implicated, i)
		} else {
			rest = append(rest, i)
		}
	}
	as.SetAttrInt("implicated", int64(len(implicated)))
	as.SetAttrInt("rest", int64(len(rest)))
	as.End()
	t.met.attribImplicated.Add(int64(len(implicated)))
	if len(implicated) == 0 || len(rest) == 0 {
		// Attribution told us nothing (matched nobody or everybody):
		// degrade to the plain per-delta pass.
		t.met.attribFallbacks.Inc()
		t.commitEach(span, batch, acks, nil)
		return
	}
	t.met.attribRechecks.Add(int64(len(implicated)))
	t.commitGroup(span, batch, acks, rest)
	t.commitEach(span, batch, acks, implicated)
}

// commitGroup stages and checks the deltas at idx as one unit, acking each
// with a copy of the shared result; any rejection or error degrades to the
// per-delta pass over the same indexes.
func (t *Tool) commitGroup(span *obs.Span, batch []sched.Delta, acks []sched.Ack[*CommitResult], idx []int) {
	if len(idx) == 1 {
		t.commitEach(span, batch, acks, idx)
		return
	}
	for _, i := range idx {
		if err := t.stageDelta(batch[i]); err != nil {
			t.db.TruncateEvents()
			t.commitEach(span, batch, acks, idx)
			return
		}
	}
	res, err := t.safeCommitUnder(span)
	if err != nil {
		t.db.TruncateEvents()
		t.commitEach(span, batch, acks, idx)
		return
	}
	if !res.Committed {
		// The attribution missed the guilty delta (events are already
		// truncated by the rejection path); per-delta re-check decides.
		t.commitEach(span, batch, acks, idx)
		return
	}
	for _, i := range idx {
		acks[i] = sched.Ack[*CommitResult]{Res: copyResult(res)}
	}
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

// violationKeySet collects the encoded values of every violating tuple.
// Violation rows carry the joined tuple values of the incremental view, so
// the key values of whichever pending event produced the row — primary keys
// included — appear among them.
func violationKeySet(viols []Violation) map[string]bool {
	set := make(map[string]bool)
	var buf []byte
	for _, v := range viols {
		for _, row := range v.Rows {
			for _, val := range row {
				buf = val.EncodeKey(buf[:0])
				set[string(buf)] = true
			}
		}
	}
	return set
}

// deltaImplicated probes the delta's write set against the violation key
// set: the delta is implicated when any key-column value of any of its ops
// (primary-key columns when the table declares them, every column
// otherwise) appears among the violating tuples' values. Key columns, not
// whole rows, keep the probe discriminative — ids implicate, incidental
// shared attribute values mostly don't.
func (t *Tool) deltaImplicated(d sched.Delta, keys map[string]bool) bool {
	var buf []byte
	for _, op := range d.Ops {
		offs := t.keyColumnOffsets(op.Table, len(op.Row))
		for _, o := range offs {
			buf = op.Row[o].EncodeKey(buf[:0])
			if keys[string(buf)] {
				return true
			}
		}
	}
	return false
}

// keyColumnOffsets returns the offsets to probe for a row of width n in the
// named table: the primary-key offsets when declared and the row has full
// arity, every offset otherwise.
func (t *Tool) keyColumnOffsets(table string, n int) []int {
	if tb := t.db.Table(strings.ToLower(table)); tb != nil {
		s := tb.Schema()
		if pk := s.PrimaryKeyOffsets(); len(pk) > 0 && n == len(s.Columns) {
			return pk
		}
	}
	offs := make([]int, n)
	for i := range offs {
		offs[i] = i
	}
	return offs
}

// commitOne stages and safeCommits a single delta (the event tables are
// empty on entry: the leader truncates between passes). A failed
// SafeCommit — e.g. an apply error — must not leak staged events into the
// next delta's pass, so the error path rewinds them.
func (t *Tool) commitOne(span *obs.Span, d sched.Delta) (*CommitResult, error) {
	if err := t.stageDelta(d); err != nil {
		t.db.TruncateEvents()
		return nil, err
	}
	res, err := t.safeCommitUnder(span)
	if err != nil {
		t.db.TruncateEvents()
		return nil, err
	}
	return res, nil
}

func (t *Tool) stageDeltas(batch []sched.Delta) error {
	for i := range batch {
		if err := t.stageDelta(batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// stageDelta applies a delta's ops through the capture layer: inserts land
// in ins_T, deletes copy the matched base rows into del_T. Deleting a row
// that does not exist is a no-op, like DELETE ... WHERE matching nothing.
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

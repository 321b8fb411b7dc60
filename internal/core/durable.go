package core

import (
	"bytes"
	"fmt"
	"time"

	"tintin/internal/obs"
	"tintin/internal/wal"
)

// defaultCheckpointEvery is the applied-batch count between automatic
// checkpoints when Options.CheckpointEvery is zero.
const defaultCheckpointEvery = 256

// walState is a tool's attached durability machinery.
type walState struct {
	store *wal.Store
	// every is the checkpoint period in applied batches (<= 0: only
	// explicit/Close checkpoints); since counts batches since the last.
	every int
	since int
	// buf is the reusable event-batch encode buffer (one live batch at a
	// time — safeCommit is single-writer by construction).
	buf bytes.Buffer
}

func checkpointPeriod(opts Options) int {
	switch {
	case opts.CheckpointEvery == 0:
		return defaultCheckpointEvery
	case opts.CheckpointEvery < 0:
		return 0
	}
	return opts.CheckpointEvery
}

// storeOptions maps the tool options onto the wal package's, resolving the
// metric pointers once — the append path must never do registry lookups.
func storeOptions(opts Options) wal.Options {
	o := wal.Options{
		Sync:     opts.Fsync,
		Injector: opts.faultInjector,
		Logger:   opts.Logger,
	}
	if reg := opts.Metrics; reg != nil {
		o.Metrics = wal.Metrics{
			Appends:         reg.Counter("tintin_wal_appends_total"),
			AppendBytes:     reg.Counter("tintin_wal_append_bytes_total"),
			Fsyncs:          reg.Counter("tintin_wal_fsyncs_total"),
			FsyncNS:         reg.Histogram("tintin_wal_fsync_ns"),
			Checkpoints:     reg.Counter("tintin_wal_checkpoints_total"),
			Replayed:        reg.Counter("tintin_wal_replayed_records_total"),
			TornTruncations: reg.Counter("tintin_wal_recovery_torn_truncations_total"),
		}
	}
	return o
}

// recoveryMetrics publishes the tintin_wal_recovery_* family after a
// completed recovery: how long the snapshot took to load, how many records
// the tail replay applied and how long it ran. Registry lookups are fine
// here — recovery is a cold path, entered once per process.
func recoveryMetrics(reg *obs.Registry, snapLoad, replay time.Duration, replayed int) {
	if reg == nil {
		return
	}
	reg.Counter("tintin_wal_recoveries_total").Inc()
	reg.Histogram("tintin_wal_recovery_snapshot_load_ns").ObserveDuration(snapLoad)
	reg.Histogram("tintin_wal_recovery_replay_ns").ObserveDuration(replay)
	reg.Counter("tintin_wal_recovery_replayed_records_total").Add(int64(replayed))
}

// Durable reports whether this tool has a WAL store attached.
func (t *Tool) Durable() bool { return t.wal != nil }

// EnableDurability attaches a fresh durable store at Options.WALDir to an
// already-built tool and writes the initial checkpoint. The directory must
// not hold prior durable state — recovering existing state is OpenDurable's
// job, and silently re-initializing over it would discard committed data.
func (t *Tool) EnableDurability() error {
	if t.wal != nil {
		return fmt.Errorf("tintin: durability already enabled")
	}
	if t.opts.WALDir == "" {
		return fmt.Errorf("tintin: Options.WALDir not set")
	}
	st, err := wal.OpenStore(t.opts.WALDir, storeOptions(t.opts))
	if err != nil {
		return err
	}
	if _, found := st.Snapshot(); found {
		st.Close()
		return fmt.Errorf("tintin: %s already holds durable state; open it with OpenDurable", t.opts.WALDir)
	}
	t.wal = &walState{store: st, every: checkpointPeriod(t.opts)}
	if err := t.Checkpoint(); err != nil {
		t.wal = nil
		st.Close()
		return err
	}
	return nil
}

// OpenDurable opens the durable store at opts.WALDir and either recovers
// the tool it holds — latest checkpoint plus WAL-tail replay — or, when the
// directory is fresh, builds a new tool via init and checkpoints it. The
// returned tool logs every applied batch; Close it to flush and detach.
//
// Recovery semantics: each WAL record is the complete validated event
// batch of one committed transaction; replay re-stages it into (first
// truncated) event tables and re-runs ApplyEvents, so the recovered state
// is exactly the state at the last durable commit. A torn final record —
// a crash mid-append — is discarded by the wal layer: that batch was never
// acknowledged. Corruption anywhere else fails hard rather than guess.
func OpenDurable(opts Options, init func() (*Tool, error)) (*Tool, error) {
	if opts.WALDir == "" {
		return nil, fmt.Errorf("tintin: Options.WALDir not set")
	}
	st, err := wal.OpenStore(opts.WALDir, storeOptions(opts))
	if err != nil {
		return nil, err
	}
	snap, found := st.Snapshot()
	if !found {
		tool, err := init()
		if err != nil {
			st.Close()
			return nil, err
		}
		tool.wal = &walState{store: st, every: checkpointPeriod(tool.opts)}
		if err := tool.Checkpoint(); err != nil {
			tool.wal = nil
			st.Close()
			return nil, err
		}
		opts.Logger.Info("durability: initialized fresh store", "dir", opts.WALDir)
		return tool, nil
	}

	opts.Logger.Info("recovery: starting", "dir", opts.WALDir,
		"snapshot_bytes", len(snap), "wal_records", st.TailLen())
	loadStart := time.Now()
	tool, err := LoadTool(bytes.NewReader(snap), opts)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("tintin: recovering %s: %w", opts.WALDir, err)
	}
	snapLoad := time.Since(loadStart)

	// The recovery span tree parallels the commit one: the tool's tracer
	// exists once LoadTool built it, so the snapshot-load duration rides as
	// an attribute while replay and compaction are timed live.
	trace := tool.tracer.Start("recovery")
	root := trace.Root()
	root.SetAttrInt("snapshot_bytes", int64(len(snap)))
	root.SetAttrInt("snapshot_load_ns", int64(snapLoad))

	stale := st.TailLen()
	rs := root.Child("replay")
	replayStart := time.Now()
	replayed, err := st.Replay(func(seq uint64, payload []byte) error {
		// Each record holds its commit's complete normalized pending set;
		// anything staged-but-uncommitted in the snapshot was consumed by
		// that later commit, so replay starts each record from empty.
		tool.db.TruncateEvents()
		if err := tool.db.DecodeEvents(payload); err != nil {
			return err
		}
		return tool.db.ApplyEvents()
	})
	replayDur := time.Since(replayStart)
	rs.SetAttrInt("records", int64(replayed))
	rs.End()
	if err != nil {
		trace.Finish()
		st.Close()
		return nil, fmt.Errorf("tintin: recovering %s: %w", opts.WALDir, err)
	}
	tool.wal = &walState{store: st, every: checkpointPeriod(opts)}
	if stale > 0 {
		// Compact what we just replayed (or what a finished checkpoint
		// already covers) so the next crash recovers from the snapshot
		// alone. replayed==0 && stale>0 is the crash-mid-checkpoint case.
		cs := root.Child("checkpoint")
		err := t0Checkpoint(tool, replayed)
		cs.End()
		if err != nil {
			trace.Finish()
			st.Close()
			return nil, err
		}
	}
	trace.Finish()
	recoveryMetrics(opts.Metrics, snapLoad, replayDur, replayed)
	opts.Logger.Info("recovery: complete", "dir", opts.WALDir,
		"snapshot_load_ns", int64(snapLoad), "replayed_records", replayed,
		"replay_ns", int64(replayDur))
	return tool, nil
}

// t0Checkpoint is OpenDurable's recovery-compaction step, split out so the
// error wrapping stays readable.
func t0Checkpoint(tool *Tool, replayed int) error {
	if err := tool.Checkpoint(); err != nil {
		return fmt.Errorf("tintin: checkpoint after replaying %d record(s): %w", replayed, err)
	}
	return nil
}

// walAppend encodes the pending event batch and appends it to the log
// under a "wal" child span. Called only with t.wal attached and pending
// events present.
func (t *Tool) walAppend(root *obs.Span) error {
	ws := root.Child("wal")
	defer ws.End()
	t.wal.buf.Reset()
	if err := t.db.EncodeEvents(&t.wal.buf); err != nil {
		return err
	}
	seq, err := t.wal.store.Append(t.wal.buf.Bytes())
	if err != nil {
		return err
	}
	ws.SetAttrInt("seq", int64(seq))
	ws.SetAttrInt("bytes", int64(t.wal.buf.Len()))
	return nil
}

// maybeCheckpoint runs the periodic checkpoint after an applied batch.
func (t *Tool) maybeCheckpoint(root *obs.Span) error {
	if t.wal == nil || t.wal.every <= 0 {
		return nil
	}
	t.wal.since++
	if t.wal.since < t.wal.every {
		return nil
	}
	cs := root.Child("checkpoint")
	err := t.Checkpoint()
	cs.End()
	if err != nil {
		return fmt.Errorf("tintin: checkpoint: %w", err)
	}
	return nil
}

// Checkpoint snapshots the full tool state into the durable store and
// truncates the WAL.
func (t *Tool) Checkpoint() error {
	if t.wal == nil {
		return fmt.Errorf("tintin: durability not enabled")
	}
	t.wal.since = 0
	//tintin:allow obsdirect checkpoint logging fires once per CheckpointEvery (256) commits, amortized off the steady hot path
	return t.wal.store.Checkpoint(t.Save)
}

// Close checkpoints (so restart recovers from the snapshot alone) and
// detaches the durable store. No-op for in-memory tools.
func (t *Tool) Close() error {
	if t.wal == nil {
		return nil
	}
	var cerr error
	if !t.opts.faultInjector.Crashed() {
		cerr = t.Checkpoint()
	}
	closeErr := t.wal.store.Close()
	t.wal = nil
	if cerr != nil {
		return cerr
	}
	return closeErr
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tintin/internal/obs"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/wal"
)

// buildFreshTool is the OpenDurable init used throughout: the core test
// schema with the running-example assertion.
func buildFreshTool(t *testing.T, opts Options) func() (*Tool, error) {
	return func() (*Tool, error) {
		db := storage.NewDB("tpc")
		tool := New(db, opts)
		if _, err := tool.Engine().ExecSQL(schemaSQL); err != nil {
			return nil, err
		}
		if err := tool.Install(); err != nil {
			return nil, err
		}
		if _, err := tool.AddAssertion(assertAtLeastOne); err != nil {
			return nil, err
		}
		return tool, nil
	}
}

// dbState renders the base tables as a canonical string for state
// comparison; event tables are asserted empty separately.
func dbState(db *storage.DB) string {
	var b strings.Builder
	for _, name := range db.BaseTableNames() {
		var rows []string
		db.MustTable(name).Scan(func(r sqltypes.Row) bool {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.String()
			}
			rows = append(rows, strings.Join(cells, ","))
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&b, "%s: [%s]\n", name, strings.Join(rows, " | "))
	}
	return b.String()
}

func assertNoPending(t *testing.T, db *storage.DB) {
	t.Helper()
	if db.HasPendingEvents() {
		t.Fatalf("event tables not empty")
	}
}

// TestKillAndRecoverEveryCrashPoint is the durability subsystem's proof:
// a commit is driven into a simulated crash at every named fault point
// (with the persisted-byte budget varied where it matters), the store is
// re-opened cold, and the recovered state must be exactly the pre-commit
// or the post-commit state — never a half-applied batch. The post-commit
// expectation is cross-checked against an independent baseline: a clone of
// the database applying the same staged events directly.
func TestKillAndRecoverEveryCrashPoint(t *testing.T) {
	cases := []struct {
		name    string
		point   wal.CrashPoint
		persist int
		expect  string // "pre" or "post"
	}{
		// Nothing of the record was written: the batch never happened.
		{"pre-append", wal.PointPreAppend, wal.PersistAll, "pre"},
		// The record reached the page cache but none (or only a torn
		// prefix) of it survived: recovery truncates the tear — pre.
		{"mid-append/lost", wal.PointMidAppend, wal.PersistNone, "pre"},
		{"mid-append/torn", wal.PointMidAppend, 21, "pre"},
		{"post-append-pre-fsync/lost", wal.PointPostAppendPreFsync, wal.PersistNone, "pre"},
		// The OS happened to flush the whole record before the crash even
		// though fsync never ran: the record is complete — post.
		{"post-append-pre-fsync/flushed", wal.PointPostAppendPreFsync, wal.PersistAll, "post"},
		// The record is durable, the in-memory apply never ran: replay
		// must finish the commit — post.
		{"post-fsync-pre-apply", wal.PointPostFsyncPreApply, wal.PersistAll, "post"},
		// The checkpoint snapshot (which contains the batch) was renamed
		// into place but the log reset didn't happen: recovery must not
		// double-apply the records the snapshot already covers — post.
		{"mid-checkpoint", wal.PointMidCheckpoint, wal.PersistAll, "post"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := &wal.Injector{Point: tc.point, Persist: tc.persist}
			opts := DefaultOptions()
			opts.WALDir = dir
			opts.Fsync = wal.SyncAlways
			opts.faultInjector = inj
			// The mid-checkpoint point only fires if the crashing commit
			// checkpoints; elsewhere keep checkpoints out of the way so
			// recovery exercises multi-record replay.
			if tc.point == wal.PointMidCheckpoint {
				opts.CheckpointEvery = 1
			} else {
				opts.CheckpointEvery = 100
			}

			tool, err := OpenDurable(opts, buildFreshTool(t, opts))
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			eng := tool.Engine()

			// One durable batch before the crash window, so recovery has
			// a real tail (or, mid-checkpoint, a fresh snapshot) to work
			// from.
			mustExec(t, eng, `INSERT INTO orders VALUES (3, 30.0)`)
			mustExec(t, eng, `INSERT INTO lineitem VALUES (3, 1, 2)`)
			if res, err := tool.SafeCommit(); err != nil || !res.Committed {
				t.Fatalf("setup commit: %+v, %v", res, err)
			}
			pre := dbState(tool.DB())

			// Stage the batch that will die, then derive the post state
			// from an independent baseline apply on a clone.
			mustExec(t, eng, `INSERT INTO orders VALUES (4, 40.0)`)
			mustExec(t, eng, `INSERT INTO lineitem VALUES (4, 1, 7)`)
			shadow := tool.DB().Clone()
			if err := shadow.ApplyEvents(); err != nil {
				t.Fatalf("baseline apply: %v", err)
			}
			post := dbState(shadow)
			if pre == post {
				t.Fatal("test is vacuous: pre == post")
			}

			inj.Arm()
			if _, err := tool.SafeCommit(); !errors.Is(err, wal.ErrCrash) {
				t.Fatalf("SafeCommit under crash = %v, want ErrCrash", err)
			}
			if !inj.Crashed() {
				t.Fatal("injector never fired — crash point not reached")
			}
			// Every durable operation on the dead tool must keep failing.
			mustExec(t, eng, `INSERT INTO orders VALUES (5, 50.0)`)
			mustExec(t, eng, `INSERT INTO lineitem VALUES (5, 1, 1)`)
			if _, err := tool.SafeCommit(); !errors.Is(err, wal.ErrCrash) {
				t.Fatalf("SafeCommit after crash = %v, want ErrCrash", err)
			}
			tool.Close()

			// Cold recovery: no injector, init must not run.
			ropts := DefaultOptions()
			ropts.WALDir = dir
			recovered, err := OpenDurable(ropts, func() (*Tool, error) {
				return nil, errors.New("init called despite existing durable state")
			})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer recovered.Close()

			got := dbState(recovered.DB())
			if got != pre && got != post {
				t.Fatalf("recovered state is neither pre nor post commit:\n--- got ---\n%s--- pre ---\n%s--- post ---\n%s", got, pre, post)
			}
			want := pre
			if tc.expect == "post" {
				want = post
			}
			if got != want {
				t.Errorf("recovered the %s-commit state, expected %s-commit for this point", map[bool]string{true: "post", false: "pre"}[got == post], tc.expect)
			}
			assertNoPending(t, recovered.DB())

			// The recovered tool is fully live: assertions survived and
			// still gate commits, and new batches are durable.
			if n := recovered.Stats().Assertions; n != 1 {
				t.Fatalf("recovered %d assertions, want 1", n)
			}
			reng := recovered.Engine()
			mustExec(t, reng, `INSERT INTO orders VALUES (9, 90.0)`)
			if res, err := recovered.SafeCommit(); err != nil || res.Committed {
				t.Fatalf("recovered tool accepted a violating commit: %+v, %v", res, err)
			}
			mustExec(t, reng, `INSERT INTO orders VALUES (9, 90.0)`)
			mustExec(t, reng, `INSERT INTO lineitem VALUES (9, 1, 4)`)
			if res, err := recovered.SafeCommit(); err != nil || !res.Committed {
				t.Fatalf("recovered tool rejected a clean commit: %+v, %v", res, err)
			}
		})
	}
}

// TestWALTransientErrorRejectsButSurvives: the partial-write/error mode —
// a one-shot append failure must fail that commit cleanly (events dropped,
// base tables untouched) while the tool and the log stay usable.
func TestWALTransientAppendError(t *testing.T) {
	dir := t.TempDir()
	inj := &wal.Injector{Point: wal.PointPostAppendPreFsync, Transient: true}
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.faultInjector = inj
	opts.CheckpointEvery = 100
	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	eng := tool.Engine()
	pre := dbState(tool.DB())

	inj.Arm()
	mustExec(t, eng, `INSERT INTO orders VALUES (3, 30.0)`)
	mustExec(t, eng, `INSERT INTO lineitem VALUES (3, 1, 2)`)
	if _, err := tool.SafeCommit(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("SafeCommit = %v, want ErrInjected", err)
	}
	if got := dbState(tool.DB()); got != pre {
		t.Fatalf("failed append mutated base tables:\n%s", got)
	}
	assertNoPending(t, tool.DB())

	// Same batch again: must commit, and survive a restart.
	mustExec(t, eng, `INSERT INTO orders VALUES (3, 30.0)`)
	mustExec(t, eng, `INSERT INTO lineitem VALUES (3, 1, 2)`)
	if res, err := tool.SafeCommit(); err != nil || !res.Committed {
		t.Fatalf("retry commit: %+v, %v", res, err)
	}
	want := dbState(tool.DB())
	tool.Close()

	ropts := DefaultOptions()
	ropts.WALDir = dir
	recovered, err := OpenDurable(ropts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := dbState(recovered.DB()); got != want {
		t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRecoveryWithoutCleanShutdown replays a multi-batch WAL tail: commits
// land, the process "dies" without Close (no final checkpoint), and
// recovery must rebuild every committed batch from snapshot + replay.
func TestRecoveryWithoutCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.CheckpointEvery = 100
	reg := obs.NewRegistry()
	opts.Metrics = reg

	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	eng := tool.Engine()
	for i := 3; i <= 6; i++ {
		mustExec(t, eng, fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d.0)`, i, i*10))
		mustExec(t, eng, fmt.Sprintf(`INSERT INTO lineitem VALUES (%d, 1, %d)`, i, i))
		if res, err := tool.SafeCommit(); err != nil || !res.Committed {
			t.Fatalf("commit %d: %+v, %v", i, res, err)
		}
	}
	if v := reg.Counter("tintin_wal_appends_total").Value(); v != 4 {
		t.Fatalf("appends counter = %d, want 4", v)
	}
	want := dbState(tool.DB())
	// No Close: the WAL tail is the only record of the four commits.

	ropts := DefaultOptions()
	ropts.WALDir = dir
	rreg := obs.NewRegistry()
	ropts.Metrics = rreg
	recovered, err := OpenDurable(ropts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := dbState(recovered.DB()); got != want {
		t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if v := rreg.Counter("tintin_wal_replayed_records_total").Value(); v != 4 {
		t.Fatalf("replayed counter = %d, want 4", v)
	}
}

// TestRecoveryRestoresPendingEvents: staged-but-uncommitted events live in
// the checkpoint snapshot and must come back as pending, not applied.
func TestRecoveryRestoresPendingEvents(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WALDir = dir
	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	eng := tool.Engine()
	mustExec(t, eng, `INSERT INTO orders VALUES (3, 30.0)`)
	mustExec(t, eng, `INSERT INTO lineitem VALUES (3, 1, 2)`)
	if err := tool.Close(); err != nil { // final checkpoint carries the pending rows
		t.Fatal(err)
	}

	recovered, err := OpenDurable(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !recovered.DB().HasPendingEvents() {
		t.Fatal("pending events lost across restart")
	}
	res, err := recovered.SafeCommit()
	if err != nil || !res.Committed {
		t.Fatalf("committing recovered pending events: %+v, %v", res, err)
	}
	if n := recovered.DB().MustTable("orders").Len(); n != 3 {
		t.Fatalf("orders rows = %d, want 3", n)
	}
}

// TestPeriodicCheckpointCompactsLog: CheckpointEvery=2 must checkpoint on
// every second applied batch, so recovery after N commits replays at most
// one record.
func TestPeriodicCheckpointCompactsLog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.CheckpointEvery = 2
	opts.Metrics = reg
	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	eng := tool.Engine()
	for i := 3; i <= 7; i++ { // 5 commits → 2 periodic checkpoints (+1 initial)
		mustExec(t, eng, fmt.Sprintf(`INSERT INTO orders VALUES (%d, 1.0)`, i))
		mustExec(t, eng, fmt.Sprintf(`INSERT INTO lineitem VALUES (%d, 1, 1)`, i))
		if res, err := tool.SafeCommit(); err != nil || !res.Committed {
			t.Fatalf("commit %d: %+v, %v", i, res, err)
		}
	}
	if v := reg.Counter("tintin_wal_checkpoints_total").Value(); v != 3 {
		t.Fatalf("checkpoints = %d, want 3 (initial + 2 periodic)", v)
	}
	want := dbState(tool.DB())
	// Die without Close; only commit #5 is outside the last checkpoint.
	ropts := DefaultOptions()
	ropts.WALDir = dir
	rreg := obs.NewRegistry()
	ropts.Metrics = rreg
	recovered, err := OpenDurable(ropts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := dbState(recovered.DB()); got != want {
		t.Fatalf("recovered state diverged")
	}
	if v := rreg.Counter("tintin_wal_replayed_records_total").Value(); v != 1 {
		t.Fatalf("replayed %d records, want 1 (the post-checkpoint tail)", v)
	}
}

// TestGroupCommitterOneAppendPerBatch: the committer's whole point as a
// durability amortizer — a multi-session batch stages together, checks
// once, and must cost exactly one WAL append.
func TestGroupCommitterOneAppendPerBatch(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.CheckpointEvery = 100
	opts.Metrics = reg
	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer tool.Close()

	appends := reg.Counter("tintin_wal_appends_total")
	base := appends.Value()
	// Drive commitBatch directly (the committer's BatchFunc) so the batch
	// composition is deterministic: three sessions, one batch.
	delta := func(key int) sched.Delta {
		return sched.Delta{Ops: []sched.Op{
			{Table: "orders", Row: sqltypes.Row{ival(key), fval(float64(key))}},
			{Table: "lineitem", Row: sqltypes.Row{ival(key), ival(1), ival(2)}},
		}}
	}
	acks, err := tool.commitBatch([]sched.Delta{delta(10), delta(11), delta(12)})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if a.Err != nil || !a.Res.Committed {
			t.Fatalf("ack %d: %+v", i, a)
		}
	}
	if got := appends.Value() - base; got != 1 {
		t.Fatalf("batch of 3 deltas cost %d WAL appends, want 1", got)
	}

	// And the whole batch is one durable unit: kill, recover, all three
	// sessions' rows are back.
	wantState := dbState(tool.DB())
	ropts := DefaultOptions()
	ropts.WALDir = dir
	recovered, err := OpenDurable(ropts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := dbState(recovered.DB()); got != wantState {
		t.Fatalf("recovered state diverged after group commit")
	}
}

// TestEnableDurabilityRefusesExistingState: silently re-initializing over
// committed data would be data loss; only OpenDurable may touch it.
func TestEnableDurabilityRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WALDir = dir
	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	tool.Close()

	fresh, err := buildFreshTool(t, opts)()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.EnableDurability(); err == nil {
		t.Fatal("EnableDurability over existing durable state succeeded")
	}
}

// TestRejectedCommitAppendsNothing: only applied batches belong in the
// redo log.
func TestRejectedCommitAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.Metrics = reg
	opts.CheckpointEvery = 100
	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer tool.Close()
	mustExec(t, tool.Engine(), `INSERT INTO orders VALUES (8, 80.0)`) // violates: no line item
	res, err := tool.SafeCommit()
	if err != nil || res.Committed {
		t.Fatalf("violating commit: %+v, %v", res, err)
	}
	if v := reg.Counter("tintin_wal_appends_total").Value(); v != 0 {
		t.Fatalf("rejected commit appended %d records", v)
	}
}

func ival(i int) sqltypes.Value     { return sqltypes.NewInt(int64(i)) }
func fval(f float64) sqltypes.Value { return sqltypes.NewFloat(f) }

// TestRecoveryObservability pins the recovery instrumentation end to end:
// an unclean restart publishes the tintin_wal_recovery_* family (visible in
// \stats via the registry snapshot), records a recovery span tree with
// replay and checkpoint children, and logs the start/complete lifecycle.
func TestRecoveryObservability(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.CheckpointEvery = 100
	opts.Metrics = obs.NewRegistry()

	tool, err := OpenDurable(opts, buildFreshTool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	eng := tool.Engine()
	for i := 3; i <= 5; i++ {
		mustExec(t, eng, fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d.0)`, i, i*10))
		mustExec(t, eng, fmt.Sprintf(`INSERT INTO lineitem VALUES (%d, 1, %d)`, i, i))
		if res, err := tool.SafeCommit(); err != nil || !res.Committed {
			t.Fatalf("commit %d: %+v, %v", i, res, err)
		}
	}
	// No Close: recovery must replay the three records.

	var logBuf bytes.Buffer
	ropts := DefaultOptions()
	ropts.WALDir = dir
	ropts.Metrics = obs.NewRegistry()
	ropts.Trace = true
	ropts.Logger = obs.TextLogger(&logBuf, slog.LevelInfo)
	recovered, err := OpenDurable(ropts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	snap := ropts.Metrics.Snapshot()
	if v := snap.Counters["tintin_wal_recoveries_total"]; v != 1 {
		t.Fatalf("recoveries = %d, want 1", v)
	}
	if v := snap.Counters["tintin_wal_recovery_replayed_records_total"]; v != 3 {
		t.Fatalf("recovery replayed records = %d, want 3", v)
	}
	for _, h := range []string{"tintin_wal_recovery_snapshot_load_ns", "tintin_wal_recovery_replay_ns"} {
		hs, ok := snap.Histograms[h]
		if !ok || hs.Count != 1 {
			t.Fatalf("%s: count=%d ok=%v, want one sample", h, hs.Count, ok)
		}
	}
	if _, ok := snap.Counters["tintin_wal_recovery_torn_truncations_total"]; !ok {
		t.Fatal("torn-truncation counter not registered")
	}
	// The same snapshot backs Stats().Runtime — what \stats renders.
	if rt := recovered.Stats().Runtime; rt == nil || rt.Counters["tintin_wal_recoveries_total"] != 1 {
		t.Fatal("recovery metrics not visible through Stats()")
	}

	// The recovery span tree: replay (with the record count) and the
	// compaction checkpoint as children of one recovery root.
	var rec *obs.TraceSnapshot
	for _, tr := range recovered.Tracer().Traces() {
		if tr.Root.Name == "recovery" {
			trc := tr
			rec = &trc
		}
	}
	if rec == nil {
		t.Fatal("no recovery trace recorded")
	}
	var names []string
	for _, c := range rec.Root.Children {
		names = append(names, c.Name)
	}
	if len(names) != 2 || names[0] != "replay" || names[1] != "checkpoint" {
		t.Fatalf("recovery children = %v, want [replay checkpoint]", names)
	}
	records := ""
	for _, a := range rec.Root.Children[0].Attrs {
		if a.Key == "records" {
			records = a.Value()
		}
	}
	if records != "3" {
		t.Fatalf("replay records attr = %q, want 3", records)
	}

	out := logBuf.String()
	for _, want := range []string{"recovery: starting", "wal_records=3", "recovery: complete", "replayed_records=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("recovery log missing %q:\n%s", want, out)
		}
	}
}

// TestOpenDurableRejectsGobEraSnapshot: a store whose checkpoint holds a
// version-1 (gob) snapshot block fails to open with ErrSnapshotCorrupt naming
// the version, and OpenDurable neither calls init nor rewrites the directory.
func TestOpenDurableRejectsGobEraSnapshot(t *testing.T) {
	dir := t.TempDir()
	// A hand-framed v1 TSNP block: magic, version 1, length, payload, CRC.
	payload := []byte{0x0c, 0xff, 0x81, 0x02, 0x01, 0x02, 0xff, 0x82, 0x00}
	block := append([]byte(storage.MagicDB), 1)
	block = binary.LittleEndian.AppendUint64(block, uint64(len(payload)))
	block = append(block, payload...)
	block = binary.LittleEndian.AppendUint32(block, crc32.Checksum(block[4:], crc32.MakeTable(crc32.Castagnoli)))
	st, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(func(w io.Writer) error { _, err := w.Write(block); return err }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	opts := DefaultOptions()
	opts.WALDir = dir
	_, err = OpenDurable(opts, func() (*Tool, error) {
		t.Fatal("init called: the directory would be reinitialised")
		return nil, nil
	})
	if !errors.Is(err, storage.ErrSnapshotCorrupt) {
		t.Fatalf("OpenDurable = %v, want ErrSnapshotCorrupt", err)
	}
	for _, want := range []string{"version 1", "gob-era snapshots are no longer read"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if after := dirContents(t, dir); after != before {
		t.Fatalf("OpenDurable rewrote the directory:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// dirContents renders every file in dir with its bytes.
func dirContents(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", e.Name(), data)
	}
	return b.String()
}

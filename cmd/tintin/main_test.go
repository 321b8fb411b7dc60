package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tintin/internal/sqlparser"
	"tintin/internal/tpch"
)

const demoScript = `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  l_quantity INTEGER,
  PRIMARY KEY (l_orderkey, l_linenumber),
  FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey)
);
INSERT INTO orders VALUES (1, 10.5);
INSERT INTO lineitem VALUES (1, 1, 5);
\install
CREATE ASSERTION atLeastOneLineItem CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)));
\assertions
\denials atLeastOneLineItem
\edcs atLeastOneLineItem
\views atLeastOneLineItem
\stats
INSERT INTO orders VALUES (2, 99.0);
CALL safeCommit;
INSERT INTO orders VALUES (2, 99.0);
INSERT INTO lineitem VALUES (2, 1, 3);
CALL safeCommit;
SELECT o_orderkey FROM orders;
\tables
\quit
`

func runShell(t *testing.T, script string, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

func TestDemoScriptFlow(t *testing.T) {
	out := runShell(t, demoScript)
	for _, want := range []string{
		"event tables installed (4), capture enabled",
		"assertion atleastonelineitem: 1 denial(s), 2 EDC(s) (1 discarded), 2 view(s)",
		"rejected: 1 assertion violation(s)",
		"committed",
		"ins_orders",
		"orders(",      // denial rendering
		"_edc",         // EDC names
		"CREATE VIEW",  // views listing
		"assertions=1", // stats
		"(2 rows)",     // final select: orders 1 and 2
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestShellReportsErrorsAndContinues(t *testing.T) {
	out := runShell(t, `
SELECT * FROM missing;
CREATE TABLE t (a INTEGER);
SELECT a FROM t;
\nonsense
\stats
`)
	if !strings.Contains(out, "error:") {
		t.Errorf("missing table error not reported:\n%s", out)
	}
	if !strings.Contains(out, "(0 rows)") {
		t.Errorf("recovery after error failed:\n%s", out)
	}
	if !strings.Contains(out, "unknown meta command") {
		t.Errorf("meta error not reported:\n%s", out)
	}
}

func TestTpchPreload(t *testing.T) {
	out := runShell(t, "\\tables\n\\quit\n", "-tpch", "1")
	if !strings.Contains(out, "loaded TPC-H") {
		t.Errorf("preload banner missing:\n%s", out)
	}
	if !strings.Contains(out, "lineitem") {
		t.Errorf("tables listing missing:\n%s", out)
	}
}

func TestMetaArgumentValidation(t *testing.T) {
	out := runShell(t, "\\views\n\\views nope\n\\quit\n")
	if strings.Count(out, "error:") != 2 {
		t.Errorf("expected two errors:\n%s", out)
	}
}

const explainScript = `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  PRIMARY KEY (l_orderkey, l_linenumber)
);
\install
CREATE ASSERTION everyOrderHasLines CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)));
\explain everyOrderHasLines
INSERT INTO orders VALUES (1, 10.5);
INSERT INTO lineitem VALUES (1, 1);
CALL safeCommit;
\explain everyOrderHasLines
\quit
`

// TestExplainGolden pins the \explain JSON — plan trees, access paths and
// plan-cache counters — byte for byte, across a full cache cycle: the first
// \explain sees the eagerly-prepared (cached) plans, and the second runs
// after a commit check exercised them. Regenerate with UPDATE_GOLDEN=1.
func TestExplainGolden(t *testing.T) {
	out := runShell(t, explainScript)
	const golden = "testdata/explain.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("\\explain output drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, out)
	}
}

const persistScript = `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  PRIMARY KEY (l_orderkey, l_linenumber)
);
\install
CREATE ASSERTION everyOrderHasLines CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)));
INSERT INTO orders VALUES (1, 10.5);
INSERT INTO lineitem VALUES (1, 1);
CALL safeCommit;
\save snap.tdb
INSERT INTO orders VALUES (2, 20.0);
INSERT INTO lineitem VALUES (2, 1);
CALL safeCommit;
SELECT o_orderkey FROM orders;
\load snap.tdb
SELECT o_orderkey FROM orders;
INSERT INTO orders VALUES (9, 90.0);
CALL safeCommit;
INSERT INTO orders VALUES (2, 20.0);
INSERT INTO lineitem VALUES (2, 1);
CALL safeCommit;
\tables
\quit
`

// TestSaveLoadGolden pins the \save / \load flow byte for byte: the state
// saved after the first commit is reloaded mid-session, rolling back a
// later commit, and the restored tool still enforces the assertion (the
// line-less order 9 is rejected, the well-formed order 2 re-commits).
// Regenerate with UPDATE_GOLDEN=1.
func TestSaveLoadGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/persist.golden")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	out := runShell(t, persistScript)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("\\save/\\load output drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, out)
	}
}

// TestDBFlagRoundTrip runs the shell twice against the same -db file: the
// first session builds schema + assertion + data and saves on exit, the
// second loads it, still enforces the assertion, and saves again.
func TestDBFlagRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.tdb")

	out := runShell(t, demoScript, "-db", path)
	if !strings.Contains(out, "saved "+path) {
		t.Fatalf("first run missing save banner:\n%s", out)
	}

	out = runShell(t, `
SELECT o_orderkey FROM orders;
INSERT INTO orders VALUES (7, 70.0);
CALL safeCommit;
INSERT INTO orders VALUES (7, 70.0);
INSERT INTO lineitem VALUES (7, 1, 2);
CALL safeCommit;
\quit
`, "-db", path)
	if !strings.Contains(out, "loaded "+path+": 1 assertion(s)") {
		t.Errorf("second run missing load banner:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("persisted rows missing:\n%s", out)
	}
	if !strings.Contains(out, "rejected: 1 assertion violation(s)") {
		t.Errorf("reloaded assertion not enforced:\n%s", out)
	}
	if !strings.Contains(out, "committed") {
		t.Errorf("clean commit after reload failed:\n%s", out)
	}
}

// TestWALFlagRecovery runs the shell twice against the same -wal directory:
// the second session must recover the committed state by snapshot + WAL
// replay, keep enforcing the assertion, and refuse \load.
func TestWALFlagRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")

	out := runShell(t, demoScript, "-wal", dir)
	if strings.Contains(out, "recovered durable state") {
		t.Fatalf("fresh run claims recovery:\n%s", out)
	}

	out = runShell(t, `
SELECT o_orderkey FROM orders;
\load nowhere.tdb
INSERT INTO orders VALUES (7, 70.0);
CALL safeCommit;
\quit
`, "-wal", dir)
	if !strings.Contains(out, "recovered durable state from "+dir+": 1 assertion(s)") {
		t.Errorf("recovery banner missing:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("recovered rows missing:\n%s", out)
	}
	if !strings.Contains(out, "not available in a -wal session") {
		t.Errorf("\\load not refused under -wal:\n%s", out)
	}
	if !strings.Contains(out, "rejected: 1 assertion violation(s)") {
		t.Errorf("recovered assertion not enforced:\n%s", out)
	}
}

// sharedLineScript types an assertion on the same line as an INSERT.
const sharedLineScript = `
CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER);
\install
INSERT INTO t VALUES (1, 1); CREATE ASSERTION nonNegative CHECK (NOT EXISTS (SELECT * FROM t WHERE t.b < 0));
CALL safeCommit;
`

// TestSharedLineAssertionRestores checks that only the assertion, not the
// rest of its input line, is persisted: the state survives both \save /
// \load and a -wal restart, and the restored assertion is enforced.
func TestSharedLineAssertionRestores(t *testing.T) {
	const violate = "INSERT INTO t VALUES (2, -1);\nCALL safeCommit;\n\\quit\n"
	check := func(t *testing.T, out, banner string) {
		t.Helper()
		if strings.Contains(out, "error:") || !strings.Contains(out, banner) {
			t.Errorf("restore failed, want %q:\n%s", banner, out)
		}
		if !strings.Contains(out, "rejected: 1 assertion violation(s)") {
			t.Errorf("restored assertion not enforced:\n%s", out)
		}
	}
	t.Run("save-load", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap.tdb")
		out := runShell(t, sharedLineScript+"\\save "+path+"\n\\load "+path+"\n"+violate)
		check(t, out, "loaded "+path+": 1 assertion(s)")
	})
	t.Run("wal", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		runShell(t, sharedLineScript+"\\quit\n", "-wal", dir)
		check(t, runShell(t, violate, "-wal", dir), "recovered durable state from "+dir+": 1 assertion(s)")
	})
}

// TestDDLAfterInstall runs both kinds of DDL after \install: a table created
// then, and a table dropped and created again then. Each stages its rows in
// its own event pair and commits them.
func TestDDLAfterInstall(t *testing.T) {
	for _, tc := range []struct{ name, ddl string }{
		{"create", "CREATE TABLE u (a INTEGER PRIMARY KEY);\nINSERT INTO u VALUES (1);\n"},
		{"drop and recreate", "DROP TABLE t;\nCREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER);\nINSERT INTO t VALUES (1, 2);\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runShell(t, "CREATE TABLE t (a INTEGER PRIMARY KEY);\n\\install\n"+tc.ddl+"CALL safeCommit;\n\\quit\n")
			if strings.Contains(out, "error:") || !strings.Contains(out, "committed") {
				t.Fatalf("want the staged row committed:\n%s", out)
			}
		})
	}
}

// TestDropTableRestrictedByAssertion: an installed assertion's views read
// its table, so DROP TABLE on it fails, and the assertion still rejects a
// violating commit.
func TestDropTableRestrictedByAssertion(t *testing.T) {
	out := runShell(t, `CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER);
CREATE ASSERTION nonNegative CHECK (NOT EXISTS (SELECT * FROM t AS x WHERE x.b < 0));
\install
DROP TABLE t;
INSERT INTO t VALUES (1, -1);
CALL safeCommit;
\quit
`)
	for _, want := range []string{"error: storage: cannot drop table t: view nonnegative", "rejected: 1 assertion violation(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBadFsyncFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fsync", "sometimes"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad -fsync accepted")
	}
}

const obsScript = `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  PRIMARY KEY (l_orderkey, l_linenumber)
);
INSERT INTO orders VALUES (1, 10.5);
INSERT INTO lineitem VALUES (1, 1);
\install
CREATE ASSERTION everyOrderHasLines CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)));
INSERT INTO orders VALUES (2, 20.0);
INSERT INTO lineitem VALUES (2, 1);
CALL safeCommit;
\trace scrub
INSERT INTO orders VALUES (3, 30.0);
INSERT INTO orders VALUES (4, 40.0);
INSERT INTO lineitem VALUES (3, 1);
INSERT INTO lineitem VALUES (4, 1);
CALL safeCommit;
\trace scrub
\stats scrub
\quit
`

// TestStatsTraceGolden pins the \stats and \trace scrub output byte for
// byte: with -workers 2, each safeCommit — slow by the -trace-slow 1ns
// standard, so also promoted to the slow log — must show the complete span
// tree (freeze, one task span per checked view with its scrubbed worker id,
// apply), and \stats must list the full metric catalog with deterministic
// counts. Regenerate with UPDATE_GOLDEN=1.
func TestStatsTraceGolden(t *testing.T) {
	out := runShell(t, obsScript, "-workers", "2", "-trace-slow", "1ns")
	const golden = "testdata/obs.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("\\stats/\\trace output drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, out)
	}
}

const recoverySeedScript = `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  PRIMARY KEY (l_orderkey, l_linenumber)
);
\install
CREATE ASSERTION everyOrderHasLines CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)));
INSERT INTO orders VALUES (1, 10.5);
INSERT INTO lineitem VALUES (1, 1);
CALL safeCommit;
INSERT INTO orders VALUES (2, 20.0);
INSERT INTO lineitem VALUES (2, 1);
CALL safeCommit;
\quit
`

const recoveryStatsScript = `
INSERT INTO orders VALUES (3, 30.0);
INSERT INTO lineitem VALUES (3, 1);
CALL safeCommit;
\stats scrub
\quit
`

// TestRecoveryStatsGolden pins the recovered session's \stats scrub dump
// byte for byte: a first session commits through a WAL, a second recovers
// it, and its runtime section must carry the full tintin_wal_recovery_*
// family — recoveries, replayed records, snapshot-load and replay
// histograms (one sample each, durations scrubbed) and the torn-truncation
// counter at zero. The shell runs chdir'ed into a temp dir with a relative
// -wal path so the recovery banner is deterministic. Regenerate with
// UPDATE_GOLDEN=1.
func TestRecoveryStatsGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/recovery.golden")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	runShell(t, recoverySeedScript, "-wal", "wal")
	out := runShell(t, recoveryStatsScript, "-wal", "wal")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("recovered \\stats output drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, out)
	}
}

// addrCapture is an io.Writer that watches the shell's output stream for
// the debug-server banner and publishes the bound address.
type addrCapture struct {
	mu    sync.Mutex
	b     strings.Builder
	addr  string
	found chan struct{}
}

func (c *addrCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.Write(p)
	if c.addr == "" {
		s := c.b.String()
		if i := strings.Index(s, "debug server listening on http://"); i >= 0 {
			rest := s[i+len("debug server listening on http://"):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				c.addr = rest[:j]
				close(c.found)
			}
		}
	}
	return len(p), nil
}

// TestDebugAddrServes boots the shell with -debug-addr :0, waits for the
// banner, and scrapes /healthz, /readyz and /metrics over real TCP while
// the session is live.
func TestDebugAddrServes(t *testing.T) {
	cap := &addrCapture{found: make(chan struct{})}
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-debug-addr", "127.0.0.1:0"}, pr, cap)
	}()
	select {
	case <-cap.found:
	case err := <-done:
		t.Fatalf("shell exited before serving: %v\noutput:\n%s", err, cap.b.String())
	case <-time.After(10 * time.Second):
		t.Fatal("no debug-server banner within 10s")
	}

	for path, want := range map[string]string{
		"/healthz": "ok",
		"/readyz":  "ready",
		"/metrics": "# TYPE",
	} {
		resp, err := http.Get("http://" + cap.addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s = %d %q, want 200 containing %q", path, resp.StatusCode, body, want)
		}
	}

	if _, err := io.WriteString(pw, "\\quit\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestTraceChromeMeta pins \trace chrome: a Chrome trace-event JSON dump
// of the ring, deterministic under scrub.
func TestTraceChromeMeta(t *testing.T) {
	out := runShell(t, `
CREATE TABLE t (a INTEGER PRIMARY KEY);
\install
INSERT INTO t VALUES (1);
CALL safeCommit;
\trace chrome scrub
\quit
`, "-trace")
	if !strings.Contains(out, `"traceEvents"`) || !strings.Contains(out, `"name":"safecommit"`) {
		t.Fatalf("\\trace chrome output missing trace events:\n%s", out)
	}
	if strings.Contains(out, `"ts":`) && !strings.Contains(out, `"ts":0`) {
		t.Fatalf("scrubbed chrome dump carries wall-clock timestamps:\n%s", out)
	}
}

// TestTraceOutFlag writes the ring to a file on exit.
func TestTraceOutFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runShell(t, `
CREATE TABLE t (a INTEGER PRIMARY KEY);
\install
INSERT INTO t VALUES (1);
CALL safeCommit;
\quit
`, "-trace-out", path)
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("missing trace-out banner:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) || !strings.Contains(string(data), `"name":"safecommit"`) {
		t.Fatalf("trace file missing span events:\n%s", data)
	}
}

func TestBadLogFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-log", "verbose"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad -log accepted")
	}
}

// pipelineScript creates every TPC-H assertion the experiments use — the
// seven of the complexity suite and the two aggregate ones — and prints
// each one's denials, EDCs (with derived rules and discards) and view SQL.
func pipelineScript(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("\\install\n")
	for _, sql := range append(tpch.ComplexityAssertions(), tpch.AggregateAssertions()...) {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		name := st.(*sqlparser.CreateAssertion).Name
		fmt.Fprintf(&b, "%s;\n\\denials %s\n\\edcs %s\n\\views %s\n", sql, name, name, name)
	}
	b.WriteString("\\quit\n")
	return b.String()
}

// TestPipelineGolden pins the whole install-time pipeline — assertion →
// denials → EDCs → SQL views — byte for byte over the TPC-H assertions.
// Regenerate with UPDATE_GOLDEN=1.
func TestPipelineGolden(t *testing.T) {
	out := runShell(t, pipelineScript(t), "-tpch", "1")
	const golden = "testdata/pipeline.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("pipeline output drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, out)
	}
}

// Command tintin is a scriptable shell reproducing the paper's demo flow
// (§3): create a database, install the event tables and capture triggers,
// add SQL assertions (compiled to denials, EDCs and incremental views), run
// updates, and CALL safeCommit to check-and-commit or reject them.
//
// Usage:
//
//	tintin [-tpch n] [-script file] [-workers n] [-trace] [-trace-slow dur]
//	       [-db file] [-wal dir] [-fsync always|interval|off]
//	       [-debug-addr host:port] [-log level] [-trace-out file.json]
//
// With -tpch n, a TPC-H database with n*1000 orders is pre-loaded.
// -workers enables the parallel commit-check scheduler, which checks that
// many views at once. -trace records a span tree per safeCommit (readable
// via \trace); -trace-slow additionally promotes traces slower than the
// given duration to a JSON line on stderr.
//
// -debug-addr serves the operational endpoints (/metrics, /healthz,
// /readyz, /debug/traces, /debug/pprof/*, /debug/vars) on the given
// address for the lifetime of the shell; /readyz reports 503 until any
// durable recovery has completed. -log enables structured logging to
// stderr at the given level (debug, info, warn, error; off disables).
// -trace-out writes every trace still in the ring at exit to the named
// file in the Chrome trace-event format, ready for Perfetto.
//
// -db names a snapshot file: loaded on start when it exists, saved on
// exit. -wal enables the durability subsystem: every committed batch is
// written to a write-ahead log under the directory (fsynced per -fsync)
// and the state is recovered — snapshot plus WAL replay — on the next
// start. Statements are read from the script file (or stdin), separated
// by semicolons. Besides SQL, the shell accepts meta commands:
//
//	\install             create event tables and enable capture
//	\assertions          list compiled assertions
//	\denials NAME        show the logic denials of an assertion
//	\edcs NAME           show the EDCs (and discarded ones) of an assertion
//	\views NAME          show the generated incremental SQL views
//	\explain NAME        show the compiled plans of an assertion as JSON
//	\stats [scrub]       compilation statistics plus runtime metrics
//	\trace [scrub]       show the last safeCommit's span tree
//	\trace chrome [scrub]  dump the trace ring as Chrome trace-event JSON
//	\tables              list tables with row counts
//	\save FILE           save the full tool state (db + assertions) to FILE
//	\load FILE           replace the session with the state saved in FILE
//	\quit                exit
//
// "scrub" replaces nondeterministic values (durations, worker ids) with
// "_" so scripted output is byte-stable — the mode the golden tests use.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"tintin/internal/core"
	"tintin/internal/engine"
	"tintin/internal/obs"
	"tintin/internal/obs/opsserver"
	"tintin/internal/sqlparser"
	"tintin/internal/storage"
	"tintin/internal/tpch"
	"tintin/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tintin:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("tintin", flag.ContinueOnError)
	script := fs.String("script", "", "SQL script to execute (default: stdin)")
	tpchOrders := fs.Int("tpch", 0, "pre-load a TPC-H database with n*1000 orders")
	seed := fs.Int64("seed", 42, "data generator seed")
	workers := fs.Int("workers", 0, "commit-check worker count (0/1 = serial)")
	trace := fs.Bool("trace", false, "record a span tree per safeCommit (see \\trace)")
	traceSlow := fs.Duration("trace-slow", 0, "promote traces slower than this to stderr (implies -trace)")
	dbPath := fs.String("db", "", "snapshot file: loaded on start when present, saved on exit")
	walDir := fs.String("wal", "", "durability directory: WAL + checkpoints, recovered on start")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always, interval or off")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/* on this address")
	logLevel := fs.String("log", "off", "structured log level on stderr: debug, info, warn, error, off")
	traceOut := fs.String("trace-out", "", "write the trace ring to this file as Chrome trace-event JSON on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	level, logEnabled, ok := obs.ParseLogLevel(*logLevel)
	if !ok {
		return fmt.Errorf("unknown -log level %q (want debug, info, warn, error or off)", *logLevel)
	}

	opts := core.DefaultOptions()
	opts.Workers = *workers
	// The shell always carries a metrics registry so \stats has a runtime
	// section; tracing stays opt-in (span recording is per-commit work).
	opts.Metrics = obs.NewRegistry()
	opts.Trace = *trace || *traceSlow > 0 || *traceOut != ""
	opts.SlowTrace = *traceSlow
	opts.WALDir = *walDir
	opts.Fsync = policy
	if logEnabled {
		opts.Logger = obs.TextLogger(os.Stderr, level)
	}

	// build constructs the fresh-start tool: the -db snapshot when one
	// exists, else TPC-H or an empty database. With -wal, OpenDurable calls
	// it only when the directory holds no prior state.
	build := func() (*core.Tool, error) {
		if *dbPath != "" {
			f, err := os.Open(*dbPath)
			if err == nil {
				defer f.Close()
				tool, err := core.LoadTool(f, opts)
				if err != nil {
					return nil, fmt.Errorf("loading %s: %w", *dbPath, err)
				}
				s := tool.Stats()
				fmt.Fprintf(out, "loaded %s: %d assertion(s), %d table(s)\n", *dbPath, s.Assertions, len(tool.DB().TableNames()))
				return tool, nil
			}
			if !os.IsNotExist(err) {
				return nil, err
			}
		}
		var db *storage.DB
		if *tpchOrders > 0 {
			var err error
			db, _, err = tpch.NewDatabase("tpc", tpch.ScaleOrders(fmt.Sprintf("%dk", *tpchOrders), *tpchOrders*1000), *seed)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "loaded TPC-H: %d orders, %d line items\n",
				db.MustTable("orders").Len(), db.MustTable("lineitem").Len())
		} else {
			db = storage.NewDB("db")
		}
		return core.New(db, opts), nil
	}

	s := &session{opts: opts}

	// The debug server comes up before the tool so a recovery in progress is
	// observable: /metrics and /healthz serve immediately, /readyz holds 503
	// until the tool (recovered or fresh) is standing. The tracer is fetched
	// through the session because \load swaps the tool out underneath it.
	if *debugAddr != "" {
		var ready atomic.Bool
		s.ready = &ready
		srv := opsserver.New(opsserver.Options{
			Metrics: opts.Metrics,
			Tracer: func() *obs.Tracer {
				if s.tool == nil {
					return nil
				}
				return s.tool.Tracer()
			},
			Ready:  ready.Load,
			Logger: opts.Logger,
		})
		addr, err := srv.Start(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "debug server listening on http://%s\n", addr)
	}

	if *walDir != "" {
		recovered := true
		s.tool, err = core.OpenDurable(opts, func() (*core.Tool, error) {
			recovered = false
			return build()
		})
		if err != nil {
			return err
		}
		if recovered {
			st := s.tool.Stats()
			fmt.Fprintf(out, "recovered durable state from %s: %d assertion(s), %d table(s)\n",
				*walDir, st.Assertions, len(s.tool.DB().TableNames()))
		}
	} else {
		s.tool, err = build()
		if err != nil {
			return err
		}
	}
	if s.ready != nil {
		s.ready.Store(true)
	}

	var in io.Reader = stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	if err := shell(s, in, out); err != nil {
		return err
	}
	if *dbPath != "" {
		if err := saveTool(s.tool, *dbPath); err != nil {
			return fmt.Errorf("saving %s: %w", *dbPath, err)
		}
		fmt.Fprintf(out, "saved %s\n", *dbPath)
	}
	if *traceOut != "" {
		if err := writeChromeFile(s.tool, *traceOut); err != nil {
			return fmt.Errorf("writing %s: %w", *traceOut, err)
		}
		fmt.Fprintf(out, "wrote %s\n", *traceOut)
	}
	return s.tool.Close()
}

// session holds the shell's current tool; \load swaps it out. ready is the
// debug server's /readyz gate (nil without -debug-addr), flipped once the
// tool — recovered or fresh — is standing.
type session struct {
	tool  *core.Tool
	opts  core.Options
	ready *atomic.Bool
}

// writeChromeFile dumps the tool's trace ring to path in the Chrome
// trace-event format (open in Perfetto or chrome://tracing).
func writeChromeFile(tool *core.Tool, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tool.Tracer().Traces()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func saveTool(tool *core.Tool, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tool.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func shell(s *session, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if trimmed == "\\quit" {
				return nil
			}
			if err := meta(s, trimmed, out); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
			continue
		}
		if buf.Len() == 0 && (trimmed == "" || strings.HasPrefix(trimmed, "--")) {
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			if err := execute(s.tool, stmt, out); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		}
	}
	if buf.Len() > 0 {
		if err := execute(s.tool, buf.String(), out); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	return sc.Err()
}

func execute(tool *core.Tool, sql string, out io.Writer) error {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		switch x := st.(type) {
		case *sqlparser.CreateAssertion:
			a, err := tool.AddAssertionAST(x)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "assertion %s: %d denial(s), %d EDC(s) (%d discarded), %d view(s)\n",
				a.Name, len(a.Denial.Denials), len(a.EDCs.EDCs), len(a.EDCs.Discarded), len(a.Views))
		default:
			res, err := tool.Engine().ExecStatement(st)
			if err != nil {
				return err
			}
			printResult(res, out)
		}
	}
	return nil
}

func printResult(res *engine.ExecResult, out io.Writer) {
	switch {
	case res.Result != nil:
		fmt.Fprintln(out, strings.Join(res.Result.Columns, " | "))
		const maxRows = 50
		for i, r := range res.Result.Rows {
			if i == maxRows {
				fmt.Fprintf(out, "... (%d more rows)\n", len(res.Result.Rows)-maxRows)
				break
			}
			fmt.Fprintln(out, r.String())
		}
		fmt.Fprintf(out, "(%d rows)\n", len(res.Result.Rows))
	case res.Message != "":
		fmt.Fprintln(out, res.Message)
	default:
		fmt.Fprintf(out, "%d row(s) affected\n", res.RowsAffected)
	}
}

func meta(s *session, cmd string, out io.Writer) error {
	tool := s.tool
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\save":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\save FILE")
		}
		if err := saveTool(tool, fields[1]); err != nil {
			return err
		}
		st := tool.Stats()
		fmt.Fprintf(out, "saved %s: %d assertion(s), %d table(s)\n", fields[1], st.Assertions, len(tool.DB().TableNames()))
		return nil

	case "\\load":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\load FILE")
		}
		if tool.Durable() {
			return fmt.Errorf("\\load is not available in a -wal session; restart without -wal to load a snapshot")
		}
		f, err := os.Open(fields[1])
		if err != nil {
			return err
		}
		defer f.Close()
		loaded, err := core.LoadTool(f, s.opts)
		if err != nil {
			return err
		}
		s.tool = loaded
		st := loaded.Stats()
		fmt.Fprintf(out, "loaded %s: %d assertion(s), %d table(s)\n", fields[1], st.Assertions, len(loaded.DB().TableNames()))
		return nil
	case "\\install":
		if err := tool.Install(); err != nil {
			return err
		}
		s := tool.Stats()
		fmt.Fprintf(out, "event tables installed (%d), capture enabled\n", len(s.EventTables))
		return nil

	case "\\assertions":
		for _, a := range tool.Assertions() {
			fmt.Fprintf(out, "%s: %d EDC(s), views %s\n", a.Name, len(a.EDCs.EDCs), strings.Join(a.Views, ", "))
		}
		return nil

	case "\\denials", "\\edcs", "\\views":
		if len(fields) < 2 {
			return fmt.Errorf("usage: %s NAME", fields[0])
		}
		a := tool.Assertion(fields[1])
		if a == nil {
			return fmt.Errorf("no assertion %s", fields[1])
		}
		switch fields[0] {
		case "\\denials":
			fmt.Fprint(out, a.Denial.String())
		case "\\edcs":
			for _, e := range a.EDCs.EDCs {
				fmt.Fprintf(out, "%s: %s\n", e.Name, e.String())
			}
			for _, name := range a.EDCs.RuleOrder {
				for _, r := range a.EDCs.Rules[name] {
					fmt.Fprintf(out, "  %s\n", r.String())
				}
			}
			for _, d := range a.EDCs.Discarded {
				fmt.Fprintf(out, "discarded %s: %s\n", d.EDC.Name, d.Reason)
			}
		case "\\views":
			names, sqls, err := tool.ViewsFor(fields[1])
			if err != nil {
				return err
			}
			for i := range names {
				fmt.Fprintf(out, "CREATE VIEW %s AS %s\n", names[i], sqls[i])
			}
		}
		return nil

	case "\\explain":
		if len(fields) < 2 {
			return fmt.Errorf("usage: \\explain NAME")
		}
		ex, err := tool.Explain(fields[1])
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		return enc.Encode(ex)

	case "\\stats":
		s := tool.Stats()
		fmt.Fprintf(out, "assertions=%d edcs=%d discarded=%d views=%d event_tables=%d\n",
			s.Assertions, s.EDCs, s.Discarded, s.Views, len(s.EventTables))
		if s.Runtime != nil {
			renderRuntime(s.Runtime, scrubArg(fields), out)
		}
		return nil

	case "\\trace":
		if len(fields) > 1 && fields[1] == "chrome" {
			trs := tool.Tracer().Traces()
			if len(fields) > 2 && fields[2] == "scrub" {
				trs = obs.ScrubTraces(trs)
			}
			return obs.WriteChromeTrace(out, trs)
		}
		tr := tool.LastTrace()
		if tr == nil {
			fmt.Fprintln(out, "no trace recorded (run with -trace and commit something)")
			return nil
		}
		renderTrace(tr, scrubArg(fields), out)
		return nil

	case "\\tables":
		for _, n := range tool.DB().TableNames() {
			fmt.Fprintf(out, "%-24s %d rows\n", n, tool.DB().MustTable(n).Len())
		}
		return nil
	}
	return fmt.Errorf("unknown meta command %s", fields[0])
}

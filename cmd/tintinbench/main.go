// Command tintinbench regenerates the paper's evaluation: the E1 grid
// behind the §1/§4 headline numbers (incremental vs non-incremental check
// times over 1–5 GB data and 1–5 MB updates), the E2 assertion-complexity
// sweep, the E3 trivial-emptiness/demo experiment, and the E4 ablations.
//
// Usage:
//
//	tintinbench [-exp e1|e2|e3|e4|all] [-orders-per-gb n] [-gbs 1,2,3,4,5] [-mbs 1,5] [-quick] [-workers n] [-perview] [-metrics] [-trace-slow dur] [-wal dir] [-fsync policy] [-debug-addr host:port] [-log level]
//
// -workers > 1 runs every safeCommit check through the parallel
// commit-check scheduler (internal/sched) with that many workers; results
// are identical to serial runs, only the check times change.
//
// -perview skips the experiments and prints the per-view check-duration
// skew table instead: which incremental views dominate a check, visible
// without a profiler — the top one bounds the parallel speedup, since a
// view is the scheduler's unit of work.
//
// -metrics dumps the full metrics registry in Prometheus text format after
// the run — every experiment tool publishes into one shared registry, the
// same catalog cmd/tintin's \stats shows. -trace-slow enables commit
// tracing and promotes any safeCommit slower than the given duration to a
// JSON span tree on stderr, pointing at the grid cells that misbehave.
//
// -wal runs every experiment tool with the durability subsystem enabled
// (per-tool WAL directories under the given path), so the reported commit
// times include the WAL append and the fsync cost selected by -fsync
// (always, interval or off).
//
// -debug-addr serves the ops endpoints (/metrics, /healthz, /readyz,
// /debug/pprof/*, ...) on the given address while the experiments run, so
// a long E1 sweep can be scraped and profiled live; it implies -metrics.
// -log enables structured lifecycle logging on stderr at the given level.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tintin/internal/harness"
	"tintin/internal/obs"
	"tintin/internal/obs/opsserver"
	"tintin/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tintinbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tintinbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: e1, e2, e3, e4, e5 or all")
	ordersPerGB := fs.Int("orders-per-gb", 150000, "orders standing in for 1GB of TPC-H data")
	gbs := fs.String("gbs", "1,2,3,4,5", "comma-separated data scales (GB labels)")
	mbs := fs.String("mbs", "1,5", "comma-separated update sizes (MB labels)")
	seed := fs.Int64("seed", 42, "generator seed")
	quick := fs.Bool("quick", false, "small configuration for a fast smoke run")
	workers := fs.Int("workers", 1, "parallel commit-check workers (1 = serial; >1 fans the per-assertion checks across a worker pool)")
	perview := fs.Bool("perview", false, "print the per-view check-duration skew table instead of the experiments (which views dominate, i.e. bound the parallel speedup)")
	metrics := fs.Bool("metrics", false, "dump the metrics registry (Prometheus text format) after the run")
	traceSlow := fs.Duration("trace-slow", 0, "trace commits and promote those slower than this to a JSON span tree on stderr (0 = off)")
	walDir := fs.String("wal", "", "enable durability: per-tool WAL directories under this path, appends on the timed commit path")
	fsync := fs.String("fsync", "always", "WAL fsync policy when -wal is set: always, interval or off")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /debug/* on this address during the run (implies -metrics)")
	logLevel := fs.String("log", "off", "structured log level on stderr: debug, info, warn, error, off")
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

	cfg := harness.Config{OrdersPerGB: *ordersPerGB, Seed: *seed}
	if cfg.GBs, err = parseInts(*gbs); err != nil {
		return fmt.Errorf("-gbs: %w", err)
	}
	if cfg.MBs, err = parseInts(*mbs); err != nil {
		return fmt.Errorf("-mbs: %w", err)
	}
	if *quick {
		cfg = harness.QuickConfig()
	}
	cfg.Workers = *workers
	cfg.SlowTrace = *traceSlow
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			return fmt.Errorf("-wal: %w", err)
		}
		cfg.WALDir = *walDir
		cfg.Fsync = policy
	}
	if logEnabled {
		cfg.Logger = obs.TextLogger(os.Stderr, level)
	}
	if *metrics || *debugAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *debugAddr != "" {
		srv := opsserver.New(opsserver.Options{Metrics: cfg.Metrics, Logger: cfg.Logger})
		addr, err := srv.Start(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("debug server listening on http://%s\n", addr)
	}
	dumpMetrics := func() error {
		if cfg.Metrics == nil {
			return nil
		}
		fmt.Println("metrics (Prometheus text format):")
		return cfg.Metrics.WritePrometheus(os.Stdout)
	}

	fmt.Printf("TINTIN evaluation reproduction (1GB ≡ %d orders, seed %d, %d check worker(s))\n\n",
		cfg.OrdersPerGB, cfg.Seed, max(1, cfg.Workers))
	if *perview {
		tab, err := harness.RunPerView(cfg)
		if err != nil {
			return fmt.Errorf("perview: %w", err)
		}
		fmt.Println(tab.Format())
		return dumpMetrics()
	}
	if err := harness.VerifyDetection(cfg); err != nil {
		return fmt.Errorf("correctness gate failed: %w", err)
	}
	fmt.Println("correctness gate: TINTIN and the non-incremental baseline agree on injected violations")
	fmt.Println()

	type runner struct {
		name string
		fn   func(harness.Config) (*harness.Table, error)
	}
	runners := []runner{
		{"e1", harness.RunE1},
		{"e2", harness.RunE2},
		{"e3", harness.RunE3},
		{"e4", harness.RunE4},
		{"e5", harness.RunE5},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		tab, err := r.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Println(tab.Format())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return dumpMetrics()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

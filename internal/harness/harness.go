// Package harness runs the paper's experiments (E1–E4 in DESIGN.md) and
// formats their result tables: the E1 grid behind the headline numbers
// (§1 ¶5, §4 ¶4), the E2 assertion-complexity sweep, the E3 trivial-
// emptiness/demo experiment, and the E4 ablations of the semantic
// optimizations.
package harness

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/obs"
	"tintin/internal/tpch"
	"tintin/internal/wal"
)

// Config parameterizes the experiments.
type Config struct {
	// GBs are the data-scale labels (the paper used 1–5 GB).
	GBs []int
	// MBs are the update sizes (the paper used 1–5 MB; it reports 1 and 5).
	MBs []int
	// OrdersPerGB maps a "GB" label to an order count. The default keeps
	// the TPC-H SF shape scaled down 10× (see tpch package docs).
	OrdersPerGB int
	// UpdateRowsPerMB maps an "MB" label to a tuple count. Scaled-down
	// configurations must scale it together with OrdersPerGB: the paper's
	// claim is about small updates on large data, so the update:data
	// proportion — not the absolute update size — is what a reduced grid
	// has to preserve.
	UpdateRowsPerMB int
	// Seed makes data and workloads deterministic.
	Seed int64
	// Workers sets the parallel commit-check fan-out (0 or 1 = serial);
	// see core.Options.Workers. Violation output is deterministic at any
	// worker count, so tables are comparable across settings.
	Workers int
	// Metrics, when set, wires every experiment tool into this registry, so
	// a bench run exposes the same commit-path metrics a production tool
	// would (cmd/tintinbench -metrics). RunPerView requires a registry — it
	// derives its table from the per-view histograms — and creates a private
	// one when this is nil.
	Metrics *obs.Registry
	// Logger, when set, receives the lifecycle events of every experiment
	// tool — WAL checkpoints, torn-tail truncations, committer shutdowns
	// (cmd/tintinbench -log). Nil disables logging; the timed commit path
	// never logs either way.
	Logger *obs.Logger
	// SlowTrace, when positive, enables commit tracing on every experiment
	// tool and promotes traces slower than this threshold to a JSON line on
	// stderr (cmd/tintinbench -trace-slow) — the way to see the span
	// decomposition of exactly the grid cells that misbehave.
	SlowTrace time.Duration
	// WALDir, when set, runs every experiment tool with the durability
	// subsystem enabled: each tool gets a fresh WAL directory under this
	// path, and every committed batch pays the append (+ fsync, per Fsync)
	// on the timed path (cmd/tintinbench -wal).
	WALDir string
	// Fsync is the WAL fsync policy when WALDir is set; the zero value is
	// wal.SyncAlways, the durable default.
	Fsync wal.SyncPolicy
}

// options builds the tool options for this config (the paper's defaults
// plus the configured check fan-out).
func (c Config) options() core.Options {
	opts := core.DefaultOptions()
	opts.Workers = c.Workers
	opts.Metrics = c.Metrics
	opts.Logger = c.Logger
	if c.SlowTrace > 0 {
		opts.Trace = true
		opts.SlowTrace = c.SlowTrace
	}
	return opts
}

// DefaultConfig is the full grid used by cmd/tintinbench.
func DefaultConfig() Config {
	return Config{GBs: []int{1, 2, 3, 4, 5}, MBs: []int{1, 5}, OrdersPerGB: 150000, UpdateRowsPerMB: tpch.RowsPerMB, Seed: 42}
}

// QuickConfig is a seconds-scale configuration for tests. Data is scaled
// down 75× from DefaultConfig, and the update with it, keeping the paper's
// update:data ratio (5000 rows per MB against 150000 orders per GB).
func QuickConfig() Config {
	return Config{GBs: []int{1, 2}, MBs: []int{1}, OrdersPerGB: 2000, UpdateRowsPerMB: 67, Seed: 42}
}

// updateRows converts an "MB" label to its tuple count under this config.
func (c Config) updateRows(mb int) int {
	if c.UpdateRowsPerMB > 0 {
		return mb * c.UpdateRowsPerMB
	}
	return mb * tpch.RowsPerMB
}

// cleanUpdate builds a clean batch for the mb label at this config's scale.
func (c Config) cleanUpdate(gen *tpch.Generator, mb int) (*tpch.Update, error) {
	return gen.CleanUpdate(fmt.Sprintf("%dMB", mb), c.updateRows(mb))
}

func (c Config) scale(gb int) tpch.Scale {
	return tpch.ScaleOrders(fmt.Sprintf("%dGB", gb), gb*c.OrdersPerGB)
}

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.4fs", d.Seconds())
}

// cell is one measured experiment point.
type cell struct {
	tintin    time.Duration
	baseline  time.Duration
	speedup   float64
	checked   int
	skipped   int
	violation bool
}

// setup builds a database at the given scale with the tool installed and the
// provided assertions compiled. With cfg.WALDir set, the tool is made
// durable (fresh per-tool WAL directory) after installation, so commits in
// the experiment carry the append/fsync cost and an initial checkpoint
// exists before any timed work.
func setup(cfg Config, gb int, opts core.Options, assertions []string) (*core.Tool, *tpch.Generator, error) {
	db, gen, err := tpch.NewDatabase("tpc", cfg.scale(gb), cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.WALDir != "" {
		dir, err := os.MkdirTemp(cfg.WALDir, "tool-")
		if err != nil {
			return nil, nil, err
		}
		opts.WALDir = dir
		opts.Fsync = cfg.Fsync
	}
	tool := core.New(db, opts)
	if err := tool.Install(); err != nil {
		return nil, nil, err
	}
	for _, a := range assertions {
		if _, err := tool.AddAssertion(a); err != nil {
			return nil, nil, err
		}
	}
	if err := gen.PrewarmIndexes(); err != nil {
		return nil, nil, err
	}
	if cfg.WALDir != "" {
		if err := tool.EnableDurability(); err != nil {
			return nil, nil, err
		}
	}
	return tool, gen, nil
}

// measure stages the update, times TINTIN's incremental check and the
// non-incremental baseline over the same update, then truncates the events.
//
// An untimed warm-up check runs first: assertion installation compiles the
// plans and builds the probe indexes, but any residual one-off cost (plan
// re-validation, lazily-built event-table buckets, allocator warm-up) must
// not be charged to whichever grid cell happens to run first. The baseline
// side needs no counterpart — CheckAfter already reports its second run.
func measure(tool *core.Tool, bl *baseline.Checker, u *tpch.Update) (cell, error) {
	db := tool.DB()
	if err := u.Stage(db); err != nil {
		return cell{}, err
	}
	if _, err := tool.Check(); err != nil {
		return cell{}, err
	}
	res, err := tool.Check()
	if err != nil {
		return cell{}, err
	}
	var c cell
	c.tintin = res.Duration
	c.checked = res.ViewsChecked
	c.skipped = res.ViewsSkipped
	c.violation = len(res.Violations) > 0

	if bl != nil {
		blRes, err := bl.CheckAfter(db)
		if err != nil {
			return cell{}, err
		}
		c.baseline = blRes.Duration
		if c.tintin > 0 {
			c.speedup = float64(c.baseline) / float64(c.tintin)
		}
	}
	db.TruncateEvents()
	return c, nil
}

// RunE1 reproduces the headline experiment: atLeastOneLineItem over the
// data-size × update-size grid, TINTIN vs the non-incremental method.
func RunE1(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "E1: atLeastOneLineItem — incremental (TINTIN) vs non-incremental check time",
		Headers: []string{"data", "update", "rows", "tintin", "non-incremental", "speedup"},
		Notes: []string{
			"paper (§1): TINTIN 0.01–0.04s on 1–5GB data with 1–5MB updates, ×89–×2662 faster",
			fmt.Sprintf("scaled reproduction: 1GB ≡ %d orders, 1MB ≡ %d update rows", cfg.OrdersPerGB, cfg.updateRows(1)),
		},
	}
	for _, gb := range cfg.GBs {
		tool, gen, err := setup(cfg, gb, cfg.options(), []string{tpch.AssertionAtLeastOneLineItem})
		if err != nil {
			return nil, err
		}
		bl, err := baseline.New(tool.DB(), []string{tpch.AssertionAtLeastOneLineItem})
		if err != nil {
			return nil, err
		}
		for _, mb := range cfg.MBs {
			u, err := cfg.cleanUpdate(gen, mb)
			if err != nil {
				return nil, err
			}
			c, err := measure(tool, bl, u)
			if err != nil {
				return nil, err
			}
			if c.violation {
				return nil, fmt.Errorf("harness: clean E1 workload reported a violation (%dGB, %dMB)", gb, mb)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dGB", gb),
				fmt.Sprintf("%dMB", mb),
				fmt.Sprintf("%d", u.Rows()),
				fmtDur(c.tintin),
				fmtDur(c.baseline),
				fmt.Sprintf("x%.0f", c.speedup),
			})
		}
	}
	return t, nil
}

// RunE2 reproduces the assertion-complexity sweep: per-assertion check time
// for assertions of increasing complexity, TINTIN always beating the
// non-incremental method (paper: 0.01–1.29s, "always better").
func RunE2(cfg Config) (*Table, error) {
	gb := cfg.GBs[len(cfg.GBs)-1]
	mb := cfg.MBs[len(cfg.MBs)-1]
	t := &Table{
		Title:   fmt.Sprintf("E2: assertions of different complexity — %dGB data, %dMB update", gb, mb),
		Headers: []string{"assertion", "edcs", "tintin", "non-incremental", "speedup"},
		Notes: []string{
			"paper (§4): times from 0.01 to 1.29 seconds, always better than non-incremental",
		},
	}
	for _, sql := range tpch.ComplexityAssertions() {
		tool, gen, err := setup(cfg, gb, cfg.options(), []string{sql})
		if err != nil {
			return nil, err
		}
		bl, err := baseline.New(tool.DB(), []string{sql})
		if err != nil {
			return nil, err
		}
		u, err := cfg.cleanUpdate(gen, mb)
		if err != nil {
			return nil, err
		}
		c, err := measure(tool, bl, u)
		if err != nil {
			return nil, err
		}
		name := tool.Assertions()[0].Name
		nEDC := len(tool.Assertions()[0].EDCs.EDCs)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", nEDC),
			fmtDur(c.tintin),
			fmtDur(c.baseline),
			fmt.Sprintf("x%.0f", c.speedup),
		})
	}
	return t, nil
}

// RunE3 reproduces the demo behaviour (§3) and the trivial-emptiness
// discard (§2): targeted updates evaluate only the affected views, and
// violating vs clean updates are rejected vs committed.
func RunE3(cfg Config) (*Table, error) {
	gb := cfg.GBs[0]
	t := &Table{
		Title:   fmt.Sprintf("E3: trivial-emptiness skip and safeCommit behaviour — %dGB data", gb),
		Headers: []string{"update", "views checked", "views skipped", "outcome", "tintin"},
		Notes: []string{
			"queries joining an empty event table are discarded without touching data (§2)",
		},
	}
	all := tpch.ComplexityAssertions()
	tool, gen, err := setup(cfg, gb, cfg.options(), all)
	if err != nil {
		return nil, err
	}
	addRow := func(label string, u *tpch.Update) error {
		if err := u.Stage(tool.DB()); err != nil {
			return err
		}
		res, err := tool.SafeCommit()
		if err != nil {
			return err
		}
		outcome := "committed"
		if !res.Committed {
			outcome = fmt.Sprintf("rejected (%d violations)", len(res.Violations))
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", res.ViewsChecked),
			fmt.Sprintf("%d", res.ViewsSkipped),
			outcome,
			fmtDur(res.Duration),
		})
		return nil
	}

	partOnly, err := gen.SingleTableUpdate("part", 1000)
	if err != nil {
		return nil, err
	}
	if err := addRow("insert 1000 parts (no assertion affected)", partOnly); err != nil {
		return nil, err
	}
	custOnly, err := gen.SingleTableUpdate("customer", 1000)
	if err != nil {
		return nil, err
	}
	if err := addRow("insert 1000 customers (one assertion affected)", custOnly); err != nil {
		return nil, err
	}
	clean, err := cfg.cleanUpdate(gen, 1)
	if err != nil {
		return nil, err
	}
	if err := addRow("1MB clean mixed update", clean); err != nil {
		return nil, err
	}
	bad, err := gen.ViolatingUpdate("1MB+bad", cfg.updateRows(1), 3)
	if err != nil {
		return nil, err
	}
	if err := addRow("1MB update with 3 orders lacking line items", bad); err != nil {
		return nil, err
	}
	return t, nil
}

// RunE4 ablates the optimizations: EDC counts and check times with the FK
// discard, subsumption, event-skip and index probes individually disabled.
// The no-index-probes variant is quadratic (update × data), so the whole
// ablation runs at a 10×-reduced scale to stay comparable across rows.
func RunE4(cfg Config) (*Table, error) {
	cfg.OrdersPerGB = max(100, cfg.OrdersPerGB/10)
	gb := cfg.GBs[0]
	mb := cfg.MBs[0]
	t := &Table{
		Title:   fmt.Sprintf("E4: ablations — %d orders, %dMB update, all assertions", gb*cfg.OrdersPerGB, mb),
		Headers: []string{"configuration", "edcs", "discarded", "views checked", "views skipped", "tintin"},
		Notes: []string{
			"run at 1/10 scale: the no-index-probes ablation is quadratic by design",
		},
	}
	type variant struct {
		name string
		opts core.Options
	}
	full := cfg.options()
	noFK := full
	noFK.EDC.FKOptimization = false
	noSub := full
	noSub.EDC.Subsumption = false
	noSkip := full
	noSkip.SkipEmptyEventViews = false
	noIdx := full
	noIdx.DisableIndexProbes = true
	variants := []variant{
		{"all optimizations (paper)", full},
		{"no FK discard", noFK},
		{"no subsumption", noSub},
		{"no event-table skip", noSkip},
		{"no index probes", noIdx},
	}
	for _, v := range variants {
		tool, gen, err := setup(cfg, gb, v.opts, tpch.ComplexityAssertions())
		if err != nil {
			return nil, err
		}
		u, err := cfg.cleanUpdate(gen, mb)
		if err != nil {
			return nil, err
		}
		c, err := measure(tool, nil, u)
		if err != nil {
			return nil, err
		}
		s := tool.Stats()
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%d", s.EDCs),
			fmt.Sprintf("%d", s.Discarded),
			fmt.Sprintf("%d", c.checked),
			fmt.Sprintf("%d", c.skipped),
			fmtDur(c.tintin),
		})
	}
	return t, nil
}

// RunPerView measures the per-view check-time skew over the full
// complexity-assertion set: one staged update, several repeated checks, and
// a table of every evaluated view's mean duration and share of the total —
// cmd/tintinbench's -perview flag. A view is the scheduler's unit of work,
// so the top view's share column says what the parallel speedup is capped
// at.
//
// The table is not derived from CheckResult.ViewDurations but from the
// metrics registry: a snapshot delta over the timed reps of the same
// tintin_view_check_ns histograms that \stats and -metrics expose, so this
// table and the live metrics can never disagree about what a check spent
// where. The warm-up check runs before the first snapshot, so its one-off
// costs stay out of the delta.
func RunPerView(cfg Config) (*Table, error) {
	const reps = 5
	gb := cfg.GBs[len(cfg.GBs)-1]
	mb := cfg.MBs[len(cfg.MBs)-1]
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	tool, gen, err := setup(cfg, gb, cfg.options(), tpch.ComplexityAssertions())
	if err != nil {
		return nil, err
	}
	u, err := cfg.cleanUpdate(gen, mb)
	if err != nil {
		return nil, err
	}
	if err := u.Stage(tool.DB()); err != nil {
		return nil, err
	}
	defer tool.DB().TruncateEvents()
	if _, err := tool.Check(); err != nil { // warm-up: see measure's comment
		return nil, err
	}
	before := cfg.Metrics.Snapshot()
	for r := 0; r < reps; r++ {
		if _, err := tool.Check(); err != nil {
			return nil, err
		}
	}
	after := cfg.Metrics.Snapshot()

	prefix := obs.Label("tintin_view_check_ns", "view", "")
	type viewRow struct {
		view string
		sum  time.Duration
		n    int64
	}
	var rows []viewRow
	var total time.Duration
	for name, hs := range after.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n, sum := hs.Count, hs.Sum
		if b, ok := before.Histograms[name]; ok {
			n -= b.Count
			sum -= b.Sum
		}
		if n == 0 {
			continue
		}
		rows = append(rows, viewRow{view: strings.TrimPrefix(name, prefix), sum: time.Duration(sum), n: n})
		total += time.Duration(sum)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sum != rows[j].sum {
			return rows[i].sum > rows[j].sum
		}
		return rows[i].view < rows[j].view
	})

	t := &Table{
		Title:   fmt.Sprintf("Per-view check durations — %dGB data, %dMB update, mean of %d checks", gb, mb, reps),
		Headers: []string{"view", "mean", "share"},
		Notes: []string{
			"a view is the unit of parallel work: the top view bounds the parallel speedup",
			"sourced from the tintin_view_check_ns metrics (snapshot delta over the timed checks)",
		},
	}
	for _, r := range rows {
		mean := r.sum / time.Duration(r.n)
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.sum) / float64(total)
		}
		t.Rows = append(t.Rows, []string{r.view, mean.String(), fmt.Sprintf("%.1f%%", share)})
	}
	return t, nil
}

// VerifyDetection cross-checks TINTIN against the baseline on a violating
// update: both must flag it. Used by tests and the bench harness as a
// correctness gate.
func VerifyDetection(cfg Config) error {
	tool, gen, err := setup(cfg, cfg.GBs[0], cfg.options(), []string{tpch.AssertionAtLeastOneLineItem})
	if err != nil {
		return err
	}
	bl, err := baseline.New(tool.DB(), []string{tpch.AssertionAtLeastOneLineItem})
	if err != nil {
		return err
	}
	u, err := gen.ViolatingUpdate("1MB+bad", cfg.updateRows(1), 2)
	if err != nil {
		return err
	}
	if err := u.Stage(tool.DB()); err != nil {
		return err
	}
	res, err := tool.Check()
	if err != nil {
		return err
	}
	blRes, err := bl.CheckAfter(tool.DB())
	if err != nil {
		return err
	}
	tool.DB().TruncateEvents()
	if len(res.Violations) == 0 {
		return fmt.Errorf("harness: TINTIN missed a violation the workload injected")
	}
	if len(blRes.Violations) == 0 {
		return fmt.Errorf("harness: baseline missed a violation the workload injected")
	}
	nT := 0
	for _, v := range res.Violations {
		nT += len(v.Rows)
	}
	nB := 0
	for _, v := range blRes.Violations {
		nB += len(v.Rows)
	}
	if nT != nB {
		return fmt.Errorf("harness: TINTIN found %d violating tuples, baseline %d", nT, nB)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Package harness runs the paper's experiments and formats their result
// tables (README, "Running the experiments"):
//
//   - E1, the grid behind the headline numbers (§1 ¶5, §4 ¶4);
//   - E2, the assertion-complexity sweep;
//   - E3, the trivial-emptiness/demo experiment;
//   - E4, the ablations of the semantic optimizations;
//   - E5, the aggregate extension (§5's future work).
package harness

import (
	"fmt"
	"strings"
	"time"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/tpch"
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
// provided assertions compiled.
func setup(cfg Config, gb int, opts core.Options, assertions []string) (*core.Tool, *tpch.Generator, error) {
	db, gen, err := tpch.NewDatabase("tpc", cfg.scale(gb), cfg.Seed)
	if err != nil {
		return nil, nil, err
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
		tool, gen, err := setup(cfg, gb, core.DefaultOptions(), []string{tpch.AssertionAtLeastOneLineItem})
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
		tool, gen, err := setup(cfg, gb, core.DefaultOptions(), []string{sql})
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
	tool, gen, err := setup(cfg, gb, core.DefaultOptions(), all)
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
	full := core.DefaultOptions()
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

// VerifyDetection cross-checks TINTIN against the baseline on a violating
// update: both must flag it. Used by tests and the bench harness as a
// correctness gate.
func VerifyDetection(cfg Config) error {
	tool, gen, err := setup(cfg, cfg.GBs[0], core.DefaultOptions(), []string{tpch.AssertionAtLeastOneLineItem})
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

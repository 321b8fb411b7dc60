package harness

import (
	"fmt"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/tpch"
)

// RunE5 measures the aggregate extension: incremental COUNT/SUM checking vs
// re-running the aggregate assertion queries in full. This experiment has no
// counterpart table in the paper — it covers §5's "extend TINTIN to handle
// aggregate functions".
func RunE5(cfg Config) (*Table, error) {
	gb := cfg.GBs[len(cfg.GBs)-1]
	mb := cfg.MBs[0]
	t := &Table{
		Title:   fmt.Sprintf("E5 (extension): aggregate assertions — %dGB data, %dMB update", gb, mb),
		Headers: []string{"assertion", "edcs", "tintin", "non-incremental", "speedup"},
		Notes: []string{
			"paper §5 names aggregates as future work; this reproduces the COUNT/SUM extension",
		},
	}
	for _, sql := range tpch.AggregateAssertions() {
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
		if c.violation {
			return nil, fmt.Errorf("harness: E5 clean workload reported a violation")
		}
		a := tool.Assertions()[0]
		t.Rows = append(t.Rows, []string{
			a.Name,
			fmt.Sprintf("%d", len(a.EDCs.EDCs)),
			fmtDur(c.tintin),
			fmtDur(c.baseline),
			fmt.Sprintf("x%.0f", c.speedup),
		})
	}
	return t, nil
}

// Command tintinbench regenerates the paper's evaluation: the E1 grid
// behind the §1/§4 headline numbers (incremental vs non-incremental check
// times over 1–5 GB data and 1–5 MB updates), the E2 assertion-complexity
// sweep, the E3 trivial-emptiness/demo experiment, the E4 ablations and the
// E5 aggregate extension, after a correctness gate on an injected violation.
//
// Usage:
//
//	tintinbench [-exp e1|e2|e3|e4|e5|all] [-quick] [-orders-per-gb n] [-gbs 1,2,3,4,5] [-mbs 1,5] [-seed n]
//
// -quick selects the seconds-scale configuration; flags given explicitly
// override it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"tintin/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tintinbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	cfg := harness.DefaultConfig()
	var set harness.Config // the values of the flags given explicitly
	fs := flag.NewFlagSet("tintinbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: e1, e2, e3, e4, e5 or all")
	quick := fs.Bool("quick", false, "small configuration for a fast smoke run")
	fs.IntVar(&set.OrdersPerGB, "orders-per-gb", cfg.OrdersPerGB, "orders standing in for 1GB of TPC-H data")
	fs.Func("gbs", "comma-separated data scales, GB labels (default 1,2,3,4,5)", intList(&set.GBs))
	fs.Func("mbs", "comma-separated update sizes, MB labels (default 1,5)", intList(&set.MBs))
	fs.Int64Var(&set.Seed, "seed", cfg.Seed, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		cfg = harness.QuickConfig()
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "orders-per-gb":
			cfg.OrdersPerGB = set.OrdersPerGB
		case "gbs":
			cfg.GBs = set.GBs
		case "mbs":
			cfg.MBs = set.MBs
		case "seed":
			cfg.Seed = set.Seed
		}
	})

	names := []string{"e1", "e2", "e3", "e4", "e5"}
	experiments := []func(harness.Config) (*harness.Table, error){
		harness.RunE1, harness.RunE2, harness.RunE3, harness.RunE4, harness.RunE5,
	}
	if *exp != "all" && !slices.Contains(names, *exp) {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fmt.Fprintf(out, "TINTIN evaluation reproduction (1GB ≡ %d orders, seed %d)\n\n", cfg.OrdersPerGB, cfg.Seed)
	if err := harness.VerifyDetection(cfg); err != nil {
		return fmt.Errorf("correctness gate failed: %w", err)
	}
	fmt.Fprintln(out, "correctness gate: TINTIN and the non-incremental baseline agree on injected violations")
	fmt.Fprintln(out)
	for i, name := range names {
		if *exp != "all" && *exp != name {
			continue
		}
		tab, err := experiments[i](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(out, tab.Format())
	}
	return nil
}

// intList is a flag.Func setter for a comma-separated list of integers.
func intList(dst *[]int) func(string) error {
	return func(s string) error {
		*dst = nil
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			*dst = append(*dst, n)
		}
		return nil
	}
}

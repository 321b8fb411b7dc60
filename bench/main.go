// Command bench is the repository's transaction benchmark: five workloads,
// each a closed loop with one client, measured end to end with tracing off
// and then layer by layer in a traced pass. See README.md.
//
//	go run ./bench -seed 1 -out bench/out/result.json
//	go run ./bench -workload small_wal -seed 7 -seconds 10 -trace 0
//	go run ./bench -runs 10 -workload bulk_mem
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// machine is recorded with every result: numbers from different boxes or
// toolchains do not compare.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// result is the file -out writes.
type result struct {
	Machine   machine           `json:"machine"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds,omitempty"`
	Scale     float64           `json:"scale"`
	Runs      int               `json:"runs"`
	Workloads []*workloadResult `json:"workloads"`
	// Spreads, with -runs N, holds each end-to-end metric's quartiles over
	// the N runs; the workloads' end_to_end values are then the medians.
	Spreads []spread `json:"spreads,omitempty"`
	// Derived compares workloads with each other; every ratio names its base.
	Derived map[string]metric `json:"derived,omitempty"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if m.Commit == "unknown" {
		// `go run` does not stamp the binary; ask git, if this is a git checkout.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	return m
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of the generated database and update stream")
		seconds = flag.Float64("seconds", 0, "bound each measured pass by this much wall time instead of a transaction count")
		trace   = flag.Int("trace", 1, "1: also run the traced pass and report the per-layer metrics; 0: timed pass only")
		scale   = flag.Float64("scale", 1, "multiply every transaction count (smoke runs)")
		runs    = flag.Int("runs", 1, "repeat the timed pass this many times (seed, seed+1, …) and report median and quartiles")
		out     = flag.String("out", "bench/out/result.json", "result file; traces and WAL directories go beside it")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	selected, err := selectWorkloads(*names)
	if err != nil {
		fatal(err)
	}
	c := config{seed: *seed, seconds: *seconds, scale: *scale, traced: *trace != 0 && *runs == 1, outDir: filepath.Dir(*out)}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		fatal(err)
	}
	res := &result{Machine: thisMachine(), Seed: *seed, Seconds: *seconds, Scale: *scale, Runs: *runs}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s %s commit=%s seed=%d\n", res.Machine.NProc, res.Machine.GOMAXPROCS,
		res.Machine.GoVersion, res.Machine.OSArch, res.Machine.Commit, *seed)

	for _, w := range selected {
		var all []*workloadResult
		for i := 0; i < *runs; i++ {
			rc := c
			rc.seed += int64(i)
			r, err := runWorkload(w, rc)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			r.print(os.Stdout)
			all = append(all, r)
		}
		r := all[0]
		if *runs > 1 {
			res.Spreads = append(res.Spreads, summarizeRuns(os.Stdout, all)...)
		}
		res.Workloads = append(res.Workloads, r)
	}
	res.derive()
	for name, m := range res.Derived {
		fmt.Printf("  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", *out)

	correct := true
	for _, r := range res.Workloads {
		correct = correct && r.Correct
	}
	if len(res.Workloads) == 1 {
		// The driver's contract: one JSON object as the last line.
		r := res.Workloads[0]
		metrics := r.EndToEnd
		if c.traced {
			metrics = r.PerLayer
		}
		line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func selectWorkloads(names string) ([]*workload, error) {
	all := allWorkloads()
	if names == "" {
		return all, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		var found *workload
		for _, w := range all {
			if w.Name == n {
				found = w
			}
		}
		if found == nil {
			return nil, fmt.Errorf("no workload %q", n)
		}
		out = append(out, found)
	}
	return out, nil
}

// derive states the two cross-workload ratios, each over its base.
func (res *result) derive() {
	by := map[string]*workloadResult{}
	for _, r := range res.Workloads {
		by[r.Name] = r
	}
	serial, pool := by["check_serial"], by["check_pool2"]
	if serial == nil || pool == nil {
		return
	}
	res.Derived = map[string]metric{
		"check_serial.txn_p50_ms/check_pool2.txn_p50_ms": {serial.EndToEnd["txn_p50_ms"].Value / pool.EndToEnd["txn_p50_ms"].Value, "ratio"},
	}
	if serial.PerLayer != nil && pool.PerLayer != nil {
		res.Derived["sched.speedup=check_serial.engine.check_ms/check_pool2.sched.check_ms"] = metric{
			serial.PerLayer["engine.check_ms"].Value / pool.PerLayer["sched.check_ms"].Value, "ratio"}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spread is one end-to-end metric's distribution over the runs of -runs N.
type spread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median, the figure the metric's bound is held to.
	Spread float64 `json:"spread"`
}

// quartiles cuts values as Python's statistics.quantiles(values, n=4) does
// (the exclusive method), so the spreads printed here are the driver's.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// summarizeRuns prints and returns the quartiles of every end-to-end metric
// over the runs, and puts the medians into the first run's row.
func summarizeRuns(w io.Writer, runs []*workloadResult) []spread {
	var out []spread
	fmt.Fprintf(w, "\n== %s over %d runs (seeds %d…%d)\n", runs[0].Name, len(runs), runs[0].Seed, runs[len(runs)-1].Seed)
	for _, r := range runs[1:] {
		runs[0].Attempted += r.Attempted
		runs[0].Failed += r.Failed
		runs[0].Correct = runs[0].Correct && r.Correct
	}
	for _, d := range endToEnd {
		sp := spread{Workload: runs[0].Name, Metric: d.Name, Unit: d.Unit}
		for _, r := range runs {
			sp.Values = append(sp.Values, r.EndToEnd[d.Name].Value)
		}
		sp.Q1, sp.Median, sp.Q3 = quartiles(sp.Values)
		sp.Spread = (sp.Q3 - sp.Q1) / sp.Median
		fmt.Fprintf(w, "  %-16s median %12.4f %-5s q1 %12.4f  q3 %12.4f  spread %5.2f%% of the median (bound %2.0f%%)\n",
			d.Name, sp.Median, d.Unit, sp.Q1, sp.Q3, 100*sp.Spread, 100*d.Bound)
		runs[0].EndToEnd[d.Name] = metric{sp.Median, d.Unit}
		out = append(out, sp)
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, the values of
// result files a and b with the ratio b/a, and marks each row against the
// metric's bound. It reports whether any row is worse or any transaction
// failed.
func compareFiles(w io.Writer, a, b string) (worse bool, err error) {
	ra, err := readResult(a)
	if err != nil {
		return false, err
	}
	rb, err := readResult(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\nratio = B/A, base A\n\n",
		a, ra.Machine.Commit, ra.Seed, b, rb.Machine.Commit, rb.Seed)
	fmt.Fprintf(w, "%-13s %-15s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	byName := map[string]*workloadResult{}
	for _, r := range rb.Workloads {
		byName[r.Name] = r
	}
	for _, wa := range ra.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", b, wa.Name)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			ratio := vb / va
			loss := ratio - 1 // how much worse B is, as a share of A
			if d.Better == "higher" {
				loss = 1 - ratio
			}
			verdict := "within bound"
			switch {
			case loss > d.Bound:
				verdict, worse = "worse", true
			case loss < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-15s %14.4f %14.4f %8.4f  %s (bound %.0f%%)\n", wa.Name, d.Name, va, vb, ratio, verdict, 100*d.Bound)
		}
		fa, fb := wa.Diagnostics["failed_ratio"].Value, wb.Diagnostics["failed_ratio"].Value
		verdict := "within bound"
		if fa > 0 || fb > 0 || !wa.Correct || !wb.Correct {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-13s %-15s %14.4f %14.4f %8s  %s (must be 0)\n", wa.Name, "failed_ratio", fa, fb, "-", verdict)
	}
	return worse, nil
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

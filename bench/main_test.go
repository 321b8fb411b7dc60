package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tintin/internal/tpch"
)

// tiny shrinks a workload to test size without renaming it.
func tiny(w *workload) *workload {
	t := *w
	t.Orders = 2000
	t.Txns = 48
	if t.WAL {
		t.Txns = 300 // past one 256-commit checkpoint
	}
	if t.Rows > 350 {
		t.Rows = 350
	}
	return &t
}

// stream renders the first n batches a seed generates as text.
func stream(t *testing.T, seed int64, n int) string {
	t.Helper()
	scale := tpch.ScaleOrders("t", 500)
	db, _, err := tpch.NewDatabase("t", scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(db, scale, seed)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		b := g.next(100, true)
		fmt.Fprintln(&sb, b.sql(), b.pairs)
	}
	return sb.String()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := stream(t, 1, 20), stream(t, 1, 20), stream(t, 2, 20)
	if a != b {
		t.Error("the same seed generated two different update streams")
	}
	if a == c {
		t.Error("seeds 1 and 2 generated the same update stream")
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the tables in this package name the same workloads
// and the same metrics, with the same units, directions and bounds.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := allWorkloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", bf.PerLayer, perLayer)
	}
}

func keys(m map[string]metric) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

// All five workloads at a tiny scale: outputs verified (which includes the
// 10% stationarity check), the trace covers the transaction, and the result
// holds exactly the metrics BENCHMARK.json names.
func TestWorkloadsAtTinyScale(t *testing.T) {
	bf := readBenchmarkFile(t)
	wantE2E, wantLayer := map[string]bool{}, map[string]bool{}
	for _, d := range bf.EndToEnd {
		wantE2E[d.Name] = true
	}
	for _, d := range bf.PerLayer {
		wantLayer[d.Name] = true
	}
	c := config{seed: 1, scale: 1, traced: true, outDir: t.TempDir()}
	results := map[string]*workloadResult{}
	for _, w := range allWorkloads() {
		r, err := runWorkload(tiny(w), c)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		results[w.Name] = r
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d: %s", w.Name, r.Correct, r.Failed, r.Error)
		}
		if got := keys(r.EndToEnd); !reflect.DeepEqual(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json names %v", w.Name, got, wantE2E)
		}
		if got := keys(r.PerLayer); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s: per-layer metrics differ from BENCHMARK.json", w.Name)
		}
		for name, m := range r.EndToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, m.Value)
			}
		}
		if cov := r.PerLayer["trace_coverage"].Value; cov < 0.9 || cov > 1 {
			t.Errorf("%s: trace_coverage = %v", w.Name, cov)
		}
		if _, err := os.Stat(filepath.Join(c.outDir, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(c.outDir, "wal-*")); len(left) > 0 {
		t.Errorf("WAL directories left behind: %v", left)
	}

	// The two check workloads take the same batches and must answer alike,
	// transaction by transaction.
	serial, pool := results["check_serial"].outcomes, results["check_pool2"].outcomes
	if len(serial) == 0 || !reflect.DeepEqual(serial, pool) {
		t.Errorf("check_serial and check_pool2 verdicts differ:\n serial %+v\n pool   %+v", serial, pool)
	}
	if results["check_pool2"].PerLayer["sched.subtasks"].Value == 0 {
		t.Error("check_pool2 ran no pool subtasks")
	}
	if results["small_wal"].PerLayer["wal.append_ms"].Value == 0 {
		t.Error("small_wal appended nothing to the log")
	}
	if results["sql_ingest"].PerLayer["sqlparser.parse_ms"].Value == 0 {
		t.Error("sql_ingest parsed nothing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareMarksRows(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, failed float64) string {
		r := result{Workloads: []*workloadResult{{
			Name: "bulk_mem", Correct: true,
			EndToEnd: map[string]metric{"txn_p50_ms": {p50, "ms"}, "rows_per_s": {1000, "1/s"},
				"allocs_per_row": {18, "count"}, "setup_s": {0.5, "s"}},
			Diagnostics: map[string]metric{"failed_ratio": {failed, "ratio"}},
		}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 2.0, 0)
	bound := endToEnd[0].Bound // of txn_p50_ms
	for _, tc := range []struct {
		p50, failed float64
		worse       bool
		mark        string
	}{
		{2 * (1 + bound/2), 0, false, "within bound"},
		{2 * (1 + 2*bound), 0, true, "worse"},
		{2 * (1 - 2*bound), 0, false, "better"},
		{2.0, 0.01, true, "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write("b.json", tc.p50, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.mark) {
			t.Errorf("p50 %v failed %v: worse=%v, output:\n%s", tc.p50, tc.failed, worse, out.String())
		}
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"tintin/internal/wal"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (main_test.go holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, measured in the timed pass with tracing
// off. failed_ratio is reported beside them; it must be 0, so it cannot
// carry a relative bound.
var endToEnd = []metricDef{
	{"txn_p50_ms", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"allocs_per_row", "count", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// timedLayers are the spans reported as median ms per transaction plus
// allocations per event row.
var timedLayers = []string{
	spanParse, spanExecInsert, spanExecDelete, spanStage, spanCheck,
	spanValidate, spanEncode, spanAppend, spanApply,
}

// perLayer are the diagnostics of single layers; no bound.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, l := range timedLayers {
		ds = append(ds, metricDef{Name: l + "_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: l + "_allocs_per_row", Unit: "count", Better: "lower"})
	}
	for _, d := range []metricDef{
		{Name: "storage.normalize_ms", Unit: "ms"},
		{Name: "storage.truncate_empty_us", Unit: "us"},
		{Name: "storage.encode_bytes_per_row", Unit: "B"},
		{Name: "engine.check_ms", Unit: "ms"},
		{Name: "engine.view_top1_ms", Unit: "ms"},
		{Name: "engine.view_top2_ms", Unit: "ms"},
		{Name: "engine.view_top3_ms", Unit: "ms"},
		{Name: "core.prepass_us", Unit: "us"},
		{Name: "core.views_checked", Unit: "count/txn"},
		{Name: "core.views_skipped", Unit: "count/txn"},
		{Name: "core.other_ms", Unit: "ms"},
		{Name: "sched.check_ms", Unit: "ms"},
		{Name: "sched.subtasks", Unit: "count/txn"},
		{Name: "sched.splits", Unit: "count/txn"},
		{Name: "wal.bytes_per_row", Unit: "B"},
		{Name: "wal.checkpoint_ms", Unit: "ms"},
		{Name: "wal.checkpoint_share", Unit: "ratio"},
		{Name: "wal.recover_ms", Unit: "ms"},
		{Name: "setup.populate_ms", Unit: "ms"},
		{Name: "setup.install_ms", Unit: "ms"},
		{Name: "setup.prewarm_ms", Unit: "ms"},
		{Name: "setup.durable_ms", Unit: "ms"},
		{Name: "sqlparser.parse_assertion_us", Unit: "us"},
		{Name: "logic.translate_us", Unit: "us"},
		{Name: "edc.generate_us", Unit: "us"},
		{Name: "sqlgen.select_us", Unit: "us"},
		{Name: "engine.prepare_us", Unit: "us"},
		{Name: "trace_txn_p50_ms", Unit: "ms"},
		{Name: "trace_overhead", Unit: "ratio"},
	} {
		d.Better = "lower"
		ds = append(ds, d)
	}
	return append(ds, metricDef{Name: "trace_coverage", Unit: "ratio", Better: "higher"})
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// viewTime names one of a workload's slowest views.
type viewTime struct {
	View string  `json:"view"`
	Ms   float64 `json:"median_ms"`
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Error     string `json:"error,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Txns and TracedTxns are the measured transactions of each pass.
	Txns       int               `json:"txns"`
	TracedTxns int               `json:"traced_txns,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	// Diagnostics are reported, not gated: failed_ratio, the tail
	// percentile (named, with its sample count) and the maximum.
	Diagnostics map[string]metric `json:"diagnostics"`
	// BlockP50Ms is the timed pass's median latency block by block, in
	// order: a run that is stationary shows no trend here.
	BlockP50Ms   []float64         `json:"block_p50_ms"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	SlowestViews []viewTime        `json:"slowest_views,omitempty"`
	// Shares are each module's part of the layered transaction's median.
	Shares map[string]float64 `json:"shares,omitempty"`

	// outcomes are the timed pass's verdicts, for the tests.
	outcomes []outcome
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tailPercentile returns the highest of the usual percentiles that still
// has at least ten samples beyond it, and its value in sorted.
func tailPercentile(sorted []time.Duration) (float64, time.Duration) {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9, 99.99} {
		if float64(len(sorted))*(1-p/100) >= 10 {
			best = p
		}
	}
	i := int(math.Ceil(float64(len(sorted))*best/100)) - 1
	return best, sorted[i]
}

// config is what the flags select.
type config struct {
	seed int64
	// seconds > 0 bounds each measured pass by wall time (the driver's
	// contract); 0 runs the workloads' frozen transaction counts × scale.
	seconds float64
	scale   float64
	traced  bool   // also run the traced pass and report the per-layer metrics
	outDir  string // traces and WAL directories
}

// counts returns the two passes' sizes: transaction counts, or, when
// -seconds is set, the wall-time budget of each pass (the seconds are split
// evenly when both passes run).
func (c config) counts(w *workload) (nTimed, nTraced int, budget time.Duration) {
	if c.seconds > 0 {
		budget = time.Duration(c.seconds * float64(time.Second))
		if c.traced {
			budget /= 2
		}
		return 0, 0, budget
	}
	nTimed = int(math.Ceil(float64(w.Txns) * c.scale))
	return nTimed, (nTimed + 3) / 4, 0
}

// runWorkload sets the workload up `setups` times, runs the timed pass on one
// set-up and the traced pass on another, checks their outputs and derives
// every metric. A failed output check comes back as Correct=false with the
// reason; only an unusable environment is an error.
func runWorkload(w *workload, c config) (*workloadResult, error) {
	r := &workloadResult{Name: w.Name, Seed: c.seed, Correct: true,
		EndToEnd: map[string]metric{}, Diagnostics: map[string]metric{}}
	fail := func(pass string, err error) {
		r.Correct = false
		if r.Error == "" {
			r.Error = pass + ": " + err.Error()
		}
	}
	nTimed, nTraced, budget := c.counts(w)

	var setupTimes []time.Duration
	spare := setups - 1
	if c.traced {
		spare--
	}
	for i := 0; i < spare; i++ {
		e, err := setUp(w, c.seed, false, c.outDir)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, e.setupTime())
		e.tearDown()
	}

	e, err := setUp(w, c.seed, false, c.outDir)
	if err != nil {
		return nil, err
	}
	setupTimes = append(setupTimes, e.setupTime())
	tp, recoverTime, err := e.timedRun(nTimed, budget)
	e.tearDown()
	if err != nil {
		fail("timed pass", err)
	}
	r.Txns, r.Attempted, r.Failed, r.outcomes = len(tp.durs), len(tp.durs), tp.failed, tp.outcomes

	if c.traced {
		e, err := setUp(w, c.seed, true, c.outDir)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, e.setupTime())
		err = r.tracedRun(e, c, nTraced, budget, tp, recoverTime)
		e.tearDown()
		if err != nil {
			fail("traced pass", err)
		}
	}

	sorted := append([]time.Duration(nil), tp.durs...)
	sortDurs(sorted)
	p50, rate, blockP50 := tp.blockStats(w.WAL)
	for _, d := range blockP50 {
		r.BlockP50Ms = append(r.BlockP50Ms, ms(d))
	}
	r.EndToEnd["txn_p50_ms"] = metric{ms(p50), "ms"}
	r.EndToEnd["rows_per_s"] = metric{rate, "1/s"}
	r.EndToEnd["allocs_per_row"] = metric{float64(tp.allocs) / float64(tp.rows), "count"}
	r.EndToEnd["setup_s"] = metric{medianDur(setupTimes).Seconds(), "s"}
	pct, tail := tailPercentile(sorted)
	r.Diagnostics["failed_ratio"] = metric{float64(tp.failed) / float64(len(tp.durs)), "ratio"}
	r.Diagnostics["txn_tail_ms"] = metric{ms(tail), "ms"}
	r.Diagnostics["txn_tail_percentile"] = metric{pct, "%"}
	r.Diagnostics["txn_samples"] = metric{float64(len(sorted)), "count"}
	r.Diagnostics["txn_max_ms"] = metric{ms(sorted[len(sorted)-1]), "ms"}
	if r.Failed > 0 {
		r.Correct = false
	}
	return r, nil
}

// timedRun warms e up, runs the timed pass and checks its outputs; on a
// durable workload it ends with the restart check and returns its time.
func (e *env) timedRun(n int, budget time.Duration) (*pass, time.Duration, error) {
	err := e.warmUp()
	tp := e.timedPass(n, budget)
	if err == nil {
		err = e.verify()
	}
	var recoverTime time.Duration
	if err == nil && e.w.WAL {
		recoverTime, err = e.recoverCheck()
	}
	return tp, recoverTime, err
}

// tracedRun runs the traced pass on e and fills in the per-layer metrics.
// tp is the timed pass of the same run: the trace's overhead and the
// checkpoint share are stated against it.
func (r *workloadResult) tracedRun(e *env, c config, n int, budget time.Duration, tp *pass, recoverTime time.Duration) error {
	w := e.w
	ct, err := e.compileReplay()
	if err != nil {
		return err
	}
	if err := e.warmUp(); err != nil {
		return err
	}
	var store *wal.Store
	if w.WAL {
		// The benchmark's own log takes the layered commits, under the
		// tool's fsync policy.
		dir, err := os.MkdirTemp(c.outDir, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if store, err = wal.OpenStore(dir, wal.Options{Sync: e.opts.Fsync}); err != nil {
			return err
		}
		defer store.Close()
	}
	subtasks0 := e.reg.Counter("tintin_sched_subtasks_total").Value()
	splits0 := e.reg.Counter("tintin_sched_tasks_split_total").Value()
	t, err := e.tracedPass(n, budget, store)
	if err != nil {
		return err
	}
	if err := t.rec.write(fmt.Sprintf("%s/trace-%s.jsonl", c.outDir, w.Name)); err != nil {
		return err
	}
	txns := len(t.txnRows)
	r.TracedTxns = txns
	r.Attempted += txns
	r.Failed += t.failed

	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	perTxn := func(v int64) float64 { return float64(v) / float64(txns) }

	layers, walls, covered := summarize(t.rec.spans, t.txnRows)
	var wallSum time.Duration
	for _, d := range walls {
		wallSum += d
	}
	tracedP50 := medianDur(walls)
	var layerSum time.Duration
	for _, l := range timedLayers {
		st := layers[l]
		med := medianDur(st.samples)
		set(l+"_ms", ms(med))
		set(l+"_allocs_per_row", 0)
		if st.rows > 0 {
			set(l+"_allocs_per_row", float64(st.allocs)/float64(st.rows))
		}
		if !st.probe {
			layerSum += med
		}
	}
	set("storage.normalize_ms", ms(medianDur(t.normalize)))
	set("storage.truncate_empty_us", us(medianDur(layers[spanTruncEmpty].samples)))
	set("storage.encode_bytes_per_row", float64(t.encodeBytes)/float64(t.encodeRows))
	set("wal.bytes_per_row", float64(t.walBytes)/float64(t.encodeRows))
	check := medianDur(t.check)
	set("engine.check_ms", 0)
	set("sched.check_ms", 0)
	set("core.prepass_us", 0)
	if w.Workers > 1 {
		set("sched.check_ms", ms(check))
	} else {
		set("engine.check_ms", ms(check))
		set("core.prepass_us", us(medianDur(t.prepass)))
	}
	set("core.views_checked", perTxn(int64(t.viewsChecked)))
	set("core.views_skipped", perTxn(int64(t.viewsSkip)))
	set("sched.subtasks", perTxn(e.reg.Counter("tintin_sched_subtasks_total").Value()-subtasks0))
	set("sched.splits", perTxn(e.reg.Counter("tintin_sched_tasks_split_total").Value()-splits0))

	for v, ds := range t.views {
		r.SlowestViews = append(r.SlowestViews, viewTime{v, ms(medianDur(ds))})
	}
	sort.Slice(r.SlowestViews, func(i, j int) bool {
		a, b := r.SlowestViews[i], r.SlowestViews[j]
		if a.Ms != b.Ms {
			return a.Ms > b.Ms
		}
		return a.View < b.View
	})
	for i := 0; i < 3; i++ {
		v := 0.0
		if i < len(r.SlowestViews) {
			v = r.SlowestViews[i].Ms
		}
		set(fmt.Sprintf("engine.view_top%d_ms", i+1), v)
	}
	if len(r.SlowestViews) > 3 {
		r.SlowestViews = r.SlowestViews[:3]
	}

	if err := e.verify(); err != nil {
		return err
	}
	set("wal.checkpoint_ms", 0)
	set("wal.checkpoint_share", 0)
	set("wal.recover_ms", ms(recoverTime))
	if w.WAL {
		cp, err := e.checkpointTime()
		if err != nil {
			return err
		}
		set("wal.checkpoint_ms", ms(cp))
		// Checkpoints taken × the checkpoint's cost ÷ summed transaction
		// time, both of the timed pass.
		set("wal.checkpoint_share", float64(len(tp.durs)/checkpointEvery)*cp.Seconds()/tp.busy.Seconds())
		if _, err := e.recoverCheck(); err != nil {
			return err
		}
	}

	set("setup.populate_ms", ms(e.populate))
	set("setup.install_ms", ms(e.install))
	set("setup.prewarm_ms", ms(e.prewarm))
	set("setup.durable_ms", ms(e.durable))
	set("sqlparser.parse_assertion_us", us(ct.parse))
	set("logic.translate_us", us(ct.translate))
	set("edc.generate_us", us(ct.generate))
	set("sqlgen.select_us", us(ct.sqlgen))
	set("engine.prepare_us", us(ct.prepare))

	set("trace_txn_p50_ms", ms(tracedP50))
	set("trace_coverage", covered.Seconds()/wallSum.Seconds())
	p50, _, _ := tp.blockStats(w.WAL)
	set("trace_overhead", tracedP50.Seconds()/p50.Seconds()-1)
	set("core.other_ms", ms(p50-layerSum))

	r.PerLayer = map[string]metric{}
	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		r.PerLayer[d.Name] = v
	}
	r.Shares = shares(m, layers, ms(tracedP50))
	return nil
}

// shares states each module's part of the layered transaction's median,
// the figures the workloads were chosen by; probe layers are not part of
// it. fixed is what a commit pays whatever its size: normalising, the
// pre-pass and truncating empty tables.
func shares(m map[string]metric, layers map[string]*layerStat, p50 float64) map[string]float64 {
	v := func(name string) float64 { return m[name].Value }
	layer := func(span string) float64 {
		if layers[span].probe {
			return 0
		}
		return v(span + "_ms")
	}
	return map[string]float64{
		"sqlparser":  layer(spanParse) / p50,
		"engine_dml": (layer(spanExecInsert) + layer(spanExecDelete)) / p50,
		"storage":    (layer(spanStage) + v("storage.normalize_ms") + layer(spanValidate) + layer(spanEncode) + layer(spanApply)) / p50,
		"check":      (v("engine.check_ms") + v("sched.check_ms")) / p50,
		"wal":        layer(spanAppend) / p50,
		"fixed":      (v("storage.normalize_ms") + v("core.prepass_us")/1000 + v("storage.truncate_empty_us")/1000) / p50,
	}
}

// layerStat is one span name's record over a traced pass.
type layerStat struct {
	// samples holds the layer's summed time in each transaction that
	// counts: for a probe layer the transactions it ran in, for any other
	// every transaction that was not a probe (0 where the layer did not run).
	samples []time.Duration
	allocs  uint64
	rows    int // event rows of the transactions the layer ran in
	probe   bool
}

// summarize folds the spans into per-layer samples, the wall times of the
// layered transactions that were not probes, and the time their layer spans
// cover. rows holds each transaction's event-row count.
func summarize(spans []span, rows []int) (layers map[string]*layerStat, walls []time.Duration, covered time.Duration) {
	probed := make([]bool, len(rows))
	layers = map[string]*layerStat{}
	sums := map[string][]time.Duration{}
	for _, l := range append([]string{spanTruncEmpty, spanTruncate, spanCheckpoint}, timedLayers...) {
		layers[l], sums[l] = &layerStat{}, make([]time.Duration, len(rows))
	}
	for _, s := range spans {
		if s.Parent == 0 {
			probed[s.Txn] = s.Probe
			if !s.Probe {
				walls = append(walls, s.dur())
			}
			continue
		}
		l := layers[s.Name]
		if sums[s.Name][s.Txn] == 0 {
			l.rows += rows[s.Txn]
		}
		sums[s.Name][s.Txn] += s.dur()
		l.allocs += s.Allocs
		switch {
		case s.Probe:
			l.probe = true
		case !probed[s.Txn]:
			covered += s.dur()
		}
	}
	for name, l := range layers {
		for txn, d := range sums[name] {
			if l.probe && d > 0 || !l.probe && !probed[txn] {
				l.samples = append(l.samples, d)
			}
		}
	}
	return layers, walls, covered
}

// print writes every metric of the result by name and unit.
func (r *workloadResult) print(w io.Writer) {
	status := "outputs correct"
	if !r.Correct {
		status = "OUTPUT CHECK FAILED: " + r.Error
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %d timed + %d traced transactions, %d failed — %s\n",
		r.Name, r.Seed, r.Txns, r.TracedTxns, r.Failed, status)
	row := func(name string, m metric) { fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit) }
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.Name]; ok {
			row(d.Name, m)
		}
	}
	for _, name := range []string{"failed_ratio", "txn_tail_ms", "txn_tail_percentile", "txn_samples", "txn_max_ms"} {
		if m, ok := r.Diagnostics[name]; ok {
			row(name, m)
		}
	}
	if r.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		row(d.Name, r.PerLayer[d.Name])
	}
	for i, v := range r.SlowestViews {
		fmt.Fprintf(w, "  slowest view %d: %-26s %14.4f ms\n", i+1, v.View, v.Ms)
	}
	names := make([]string, 0, len(r.Shares))
	for n := range r.Shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  share of the layered txn: %-14s %14.1f %%\n", n, 100*r.Shares[n])
	}
}

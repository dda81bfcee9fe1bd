// Command perfbench is the benchmark of the dynamic-optimization engine. It
// loads the TPC-H and TPC-DS datasets, runs one workload against the public
// dynopt API in a closed loop for a fixed time, checks every result against
// reference rows, and prints each metric by name with its unit. The last
// line of standard output is one JSON object with the run's result.
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs the
// loop untraced for half the time (counts), then traced for the other half:
// each query's db.Query call is a root span, followed by a walk that calls
// each layer's entry point on the same inputs as child spans. The spans are
// written to a file and the per-layer times are computed from it.
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash perfbench/run.sh --workload fig7-dynamic --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dynopt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sf        int
	nodes     int
	setupReps int
	workDir   string // page files, spill runs, and span files
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig7-dynamic, serve-memo, or paged-spill")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the query order and parameter bindings")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured duration of the run")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d)\n", o.workload, trace)
		fs.Usage()
		return 2
	}
	o.trace = trace == 1
	o.sf, o.nodes, o.setupReps = benchSF, benchNodes, benchSetupReps
	o.workDir = filepath.Join(".bench_build", "perfbench-work")
	return runWith(o, w, stdout, stderr)
}

// runWith runs workload w with o, prints the result as the last line of
// stdout, and returns the exit code.
func runWith(o options, w workload, stdout, stderr io.Writer) int {
	res, err := bench(o, w, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// bench runs workload w once and returns its result. Progress and every
// metric are printed to out as they are known.
func bench(o options, w workload, out io.Writer) (*result, error) {
	runDir, err := filepath.Abs(filepath.Join(o.workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	spansPath := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))

	st := makeStamp(w, o.sf, o.nodes, runDir)
	fmt.Fprintf(out, "stamp %s %s\n", st.id(), st)
	fmt.Fprintf(out, "loop: closed, %d client(s), seed %d, %.0f s measured, trace %v\n", w.clients, o.seed, o.seconds, o.trace)

	seq := sequence(w, o.seed, sequenceLength)
	t0 := time.Now()
	exp, err := reference(seq, o.sf, o.nodes)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "reference: %d (query, binding) keys in %.2f s (resident, memo off, cost-based)\n", len(exp), time.Since(t0).Seconds())

	db, setupTimes, err := setup(w, o.sf, o.nodes, o.setupReps, runDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "setup: %d builds, %s s\n", len(setupTimes), fmtFloats(setupTimes))
	for _, it := range seq[:warmupQueries] {
		res, err := db.Query(it.sql, &dynopt.QueryOptions{Params: it.params})
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", it.key, err)
		}
		if err := exp.check(it.key, res.Rows); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		r := runLoop(db, seq, warmupQueries, w.clients, dur, exp, nil)
		ms := endToEnd(r, setupTimes)
		printLoop(out, "untraced", r)
		return finish(out, ms, r.attempted, r.failed, r.mismatched, r.firstErr), nil
	}

	untraced := runLoop(db, seq, warmupQueries, w.clients, dur/2, exp, nil)
	printLoop(out, "untraced", untraced)
	walkDirs, err := newDirs(filepath.Join(runDir, "walk"))
	if err != nil {
		return nil, err
	}
	walk, err := newWalkEnv(w, o.sf, o.nodes, walkDirs)
	if err != nil {
		return nil, fmt.Errorf("walk env: %w", err)
	}
	tr := newTracer(walk)
	traced := runLoop(db, seq, warmupQueries, w.clients, dur/2, exp, tr)
	printLoop(out, "traced", traced)
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	spans, err := readSpans(spansPath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), spansPath)
	ms := perLayer(untraced, traced, spans)
	return finish(out, ms,
		untraced.attempted+traced.attempted, untraced.failed+traced.failed,
		untraced.mismatched+traced.mismatched, firstNonNil(untraced.firstErr, traced.firstErr)), nil
}

func firstNonNil(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// finish prints every metric and assembles the result.
func finish(out io.Writer, ms []namedMetric, attempted, failed, mismatched int, firstErr error) *result {
	res := &result{Correct: mismatched == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		res.Metrics[m.name] = m.metric
		fmt.Fprintf(out, "metric %-30s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
	errorRate := 0.0
	if attempted > 0 {
		errorRate = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(out, "metric %-30s %14.6g ratio (%d failed, %d wrong rows, of %d attempted)\n", "error_rate", errorRate, failed, mismatched, attempted)
	if firstErr != nil {
		fmt.Fprintf(out, "FAILED: %v\n", firstErr)
	}
	return res
}

// printLoop prints a loop's sample counts and a per-statement breakdown.
func printLoop(out io.Writer, label string, r *loopResult) {
	fewest := r.completed()
	for _, w := range r.byWindow() {
		fewest = min(fewest, len(w))
	}
	above := fewest - int(math.Ceil(latencyPercentile*float64(fewest)))
	fmt.Fprintf(out, "%s loop: %d queries in %.2f s; %d time slices, the smallest with %d samples (%d above its p95)\n",
		label, r.completed(), r.elapsed.Seconds(), windows, fewest, above)
	groups := byStmt(r.samples)
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := groups[name]
		var sim float64
		var spill int64
		for _, s := range g {
			sim += s.sim
			spill += s.spill
		}
		k := float64(len(g))
		lat := latencies(g)
		fmt.Fprintf(out, "  %-5s %5d queries  p50 %8.3f ms  p95 %8.3f ms  sim %8.3f s/query  spill %8.4f MB/query\n",
			name, len(g), percentile(lat, 0.5), percentile(lat, latencyPercentile), sim/k, float64(spill)/1e6/k)
	}
}

// endToEnd computes the user-visible metrics of an untraced loop.
func endToEnd(r *loopResult, setupTimes []float64) []namedMetric {
	n := float64(r.completed())
	qps, p50, p95 := r.timings()
	return []namedMetric{
		{"latency_p50_ms", metric{p50, "ms"}},
		{"latency_p95_ms", metric{p95, "ms"}},
		{"qps", metric{qps, "1/s"}},
		{"sim_s_per_query", metric{div(r.tally.simSeconds, n), "sim_s"}},
		{"alloc_mb_per_query", metric{div(float64(r.rtEnd.allocBytes-r.rtStart.allocBytes)/1e6, n), "MB"}},
		{"heap_peak_mb", metric{r.heapPeak() / 1e6, "MB"}},
		{"success_rate", metric{div(float64(r.attempted-r.failed), float64(r.attempted)), "ratio"}},
		{"setup_s", metric{median(setupTimes), "s"}},
	}
}

// perLayer computes the per-layer metrics: counts from the untraced loop,
// self times from the traced loop's spans.
func perLayer(u, t *loopResult, spans []span) []namedMetric {
	n := float64(u.completed())
	c := &u.tally
	perQ := func(v int64) float64 { return div(float64(v), n) }
	times, coverage, _ := layerTimes(spans)
	gcCPU := u.rtEnd.gcCPU - u.rtStart.gcCPU
	totalCPU := u.rtEnd.totalCPU - u.rtStart.totalCPU
	ms := []namedMetric{}
	for _, name := range []string{
		"sqlpp.parse", "sqlpp.analyze", "core.estimate", "core.plan", "core.shape_key",
		"engine.scan", "engine.materialize", "engine.execute", "engine.finish",
	} {
		ms = append(ms, namedMetric{name + "_ms", metric{times[name], "ms"}})
	}
	uq := n / u.elapsed.Seconds()
	tq := float64(t.completed()) / t.elapsed.Seconds()
	ms = append(ms,
		namedMetric{"core.reopts_per_query", metric{perQ(c.reopts), "count"}},
		namedMetric{"core.pushdowns_per_query", metric{perQ(c.pushdowns), "count"}},
		namedMetric{"engine.scan_rows", metric{perQ(c.scanRows), "rows"}},
		namedMetric{"engine.shuffle_mb", metric{perQ(c.shuffleBytes) / 1e6, "MB"}},
		namedMetric{"engine.build_rows", metric{perQ(c.buildRows), "rows"}},
		namedMetric{"engine.probe_rows", metric{perQ(c.probeRows), "rows"}},
		namedMetric{"engine.mat_write_mb", metric{perQ(c.matWriteBytes) / 1e6, "MB"}},
		namedMetric{"stats.observed_per_query", metric{perQ(c.statsObserved), "count"}},
		namedMetric{"storage.pages_read_per_query", metric{perQ(c.pagesRead), "count"}},
		namedMetric{"storage.page_miss_ratio", metric{div(float64(c.cacheMiss), float64(c.cacheHits+c.cacheMiss)), "ratio"}},
		namedMetric{"storage.prune_ratio", metric{div(float64(c.pagesPruned), float64(c.pagesRead+c.pagesPruned)), "ratio"}},
		namedMetric{"storage.spill_mb_per_query", metric{perQ(c.spillBytes) / 1e6, "MB"}},
		namedMetric{"storage.spill_rebuilds", metric{float64(c.spillRebuilds), "count"}},
		namedMetric{"memo.hit_ratio", metric{perQ(c.memoHits), "ratio"}},
		namedMetric{"memo.fallback_ratio", metric{perQ(c.memoFallbacks), "ratio"}},
		namedMetric{"runtime.gc_cpu_frac", metric{div(gcCPU, totalCPU), "ratio"}},
		namedMetric{"runtime.mallocs_per_query", metric{div(float64(u.rtEnd.mallocs-u.rtStart.mallocs), n), "count"}},
		namedMetric{"runtime.gc_cycles_per_query", metric{div(float64(u.rtEnd.gcCycles-u.rtStart.gcCycles), n), "count"}},
		namedMetric{"trace.query_ms", metric{times["query"], "ms"}},
		namedMetric{"trace.coverage", metric{coverage, "ratio"}},
		namedMetric{"trace.overhead", metric{div(uq-tq, uq), "ratio"}},
	)
	return ms
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(xs []float64) string {
	b, _ := json.Marshal(xs)
	return string(b)
}

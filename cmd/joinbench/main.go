// Command joinbench regenerates the paper's evaluation artifacts:
//
//	joinbench -fig 6            Figure 6 (overhead decomposition, both halves)
//	joinbench -fig 7            Figure 7 (six strategies, hash+broadcast)
//	joinbench -fig 8            Figure 8 (with secondary indexes + INLJ)
//	joinbench -table 1          Table 1 (average improvement ratios)
//	joinbench -joinjson FILE    join micro-benchmark snapshot (ns/op,
//	                            allocs/op for repartition/hash/broadcast/INLJ)
//	joinbench -spilljson FILE   memory-governed join sweep: per-node budget
//	                            from ample down to 1/8 of the build side,
//	                            real disk spilling, invariants checked
//	joinbench -servejson FILE   plan-memo serving bench: repeated
//	                            parameterized shapes with rotating bindings,
//	                            cold (dynamic loop) vs hot (memo replay)
//	                            queries/sec, hit-rate and row equality
//	                            checked
//	joinbench -vecjson FILE     vectorization snapshot: scalar-vs-vector
//	                            predicate micros, identical selections
//	                            checked
//	joinbench -storagejson FILE disk-native storage sweep: cold-vs-warm
//	                            paged scans through the byte-budgeted page
//	                            cache, zone-map pruning on a selective
//	                            filter (>=50% of pages skipped, checked),
//	                            and the access-path pick priced against
//	                            its forced alternative (>=2x, checked)
//	joinbench -all              everything
//
// Flags -sf (comma-separated scale factors, default 1,5,25 standing in for
// the paper's 10/100/1000 GB) and -nodes (default 10, the paper's cluster
// size) control the setup. -cpuprofile/-memprofile write pprof profiles so
// pipeline regressions are diagnosable straight from the bench harness.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dynopt/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (6, 7, or 8)")
	table := flag.Int("table", 0, "table to regenerate (1)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	ablation := flag.Bool("ablation", false, "broadcast-threshold ablation sweep")
	joinJSON := flag.String("joinjson", "", "write a join micro-benchmark snapshot (ns/op, allocs/op) to this file")
	spillJSON := flag.String("spilljson", "", "write a memory-budget spill sweep snapshot to this file")
	serveJSON := flag.String("servejson", "", "write a cold-vs-hot plan-memo serving snapshot to this file")
	vecJSON := flag.String("vecjson", "", "write a scalar-vs-vector predicate snapshot to this file")
	storageJSON := flag.String("storagejson", "", "write a disk-native storage sweep snapshot to this file")
	pipeRuns := flag.Int("runs", 5, "runs per mode for the -servejson medians")
	joinRows := flag.Int("joinrows", 50000, "fact rows for the -joinjson and -spilljson benchmarks")
	sfFlag := flag.String("sf", "1,5,25", "comma-separated scale factors")
	nodes := flag.Int("nodes", 10, "simulated cluster nodes")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() exits without unwinding, so flushing is registered with it
		// too: a failing bench still leaves a usable CPU profile behind.
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopCPUProfile = nil
		}
		defer func() { flushProfiles(*memProfile) }()
	} else if *memProfile != "" {
		defer func() { flushProfiles(*memProfile) }()
	}

	sfs, err := parseSFs(*sfFlag)
	if err != nil {
		fatal(err)
	}
	ran := false
	if *all || *fig == 6 {
		ran = true
		runFigure6(sfs, *nodes)
	}
	if *all || *fig == 7 {
		ran = true
		rows := runFigure7(sfs, *nodes)
		if *all || *table == 1 {
			fmt.Println("== Table 1: average improvement of dynamic vs baselines (ratio of baseline sim time to dynamic's) ==")
			fmt.Println(bench.FormatTable1(bench.Table1(rows)))
		}
	} else if *table == 1 {
		ran = true
		rows := runFigure7(sfs, *nodes)
		fmt.Println("== Table 1: average improvement of dynamic vs baselines ==")
		fmt.Println(bench.FormatTable1(bench.Table1(rows)))
	}
	if *all || *fig == 8 {
		ran = true
		runFigure8(sfs, *nodes)
	}
	if *all || *ablation {
		ran = true
		fmt.Println("== Ablation: broadcast threshold sweep (dynamic strategy) ==")
		rows, err := bench.AblationBroadcastThreshold(sfs[0], *nodes,
			[]int64{0, 16 << 10, 128 << 10, 1 << 20, 8 << 20})
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatAblation(rows))
	}
	if *joinJSON != "" {
		ran = true
		fmt.Printf("== Join micro-benchmarks (%d fact rows, %d nodes) -> %s ==\n",
			*joinRows, *nodes, *joinJSON)
		res, err := bench.WriteJoinMicrosJSON(*joinJSON, *joinRows, *nodes)
		if err != nil {
			fatal(err)
		}
		for _, r := range res {
			fmt.Printf("  %-14s %12.0f ns/op %8d allocs/op %10d B/op\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
	}
	if *spillJSON != "" {
		ran = true
		fmt.Printf("== Memory-governed join sweep (%d fact rows, %d nodes) -> %s ==\n",
			*joinRows, *nodes, *spillJSON)
		pts, err := bench.WriteSpillJSON(*spillJSON, *joinRows, *nodes)
		if err != nil {
			fatal(err)
		}
		for _, p := range pts {
			fmt.Printf("  %-6s budget %8d B/node  spill %9d B %7d rows  peak %8d/%8d B  sim %7.3fs wall %6.3fs\n",
				p.Name, p.BudgetBytes, p.SpillBytes, p.SpillRows,
				p.PeakGrantBytes, p.GrantCapacity, p.SimSeconds, p.WallSeconds)
		}
	}
	if *serveJSON != "" {
		ran = true
		fmt.Printf("== Plan-memo serving bench (sf %d, %d nodes, %d runs) -> %s ==\n",
			sfs[0], *nodes, *pipeRuns, *serveJSON)
		pts, err := bench.WriteServeJSON(*serveJSON, sfs[0], *nodes, *pipeRuns)
		if err != nil {
			fatal(err)
		}
		for _, p := range pts {
			fmt.Printf("  %-5s %2d bindings  cold %7.1f q/s  hot %7.1f q/s  %+6.1f%%  hit %.0f%%  fallbacks %d\n",
				p.Query, p.Bindings, p.ColdQPS, p.HotQPS, p.SpeedupPct, 100*p.HitRate, p.Fallbacks)
		}
	}
	if *vecJSON != "" {
		ran = true
		fmt.Printf("== Vectorized predicate kernels vs scalar -> %s ==\n", *vecJSON)
		rep, err := bench.WriteVectorJSON(*vecJSON)
		if err != nil {
			fatal(err)
		}
		for _, m := range rep.FilterMicros {
			fmt.Printf("  filter %-14s sel %4.0f%%  scalar %6.2f ns/row  vector %6.2f ns/row  %5.2fx\n",
				m.Name, 100*m.Selectivity, m.ScalarNsPerRow, m.VectorNsPerRow, m.Speedup)
		}
	}
	if *storageJSON != "" {
		ran = true
		fmt.Printf("== Disk-native storage sweep (%d fact rows, %d nodes) -> %s ==\n",
			*joinRows, *nodes, *storageJSON)
		snap, err := bench.WriteStorageJSON(*storageJSON, *joinRows, *nodes, 64)
		if err != nil {
			fatal(err)
		}
		for _, s := range snap.Scans {
			fmt.Printf("  scan cache %-5s %8d B %5d pages  cold %5d miss %5d hit %6.3fs  warm %5d miss %5d hit %6.3fs\n",
				s.Name, s.CacheBytes, s.Pages, s.Cold.CacheMisses, s.Cold.CacheHits, s.Cold.WallSeconds,
				s.Warm.CacheMisses, s.Warm.CacheHits, s.Warm.WallSeconds)
		}
		fmt.Printf("  prune %d/%d pages (%.0f%%), %d of %d rows selected\n",
			snap.Prune.PagesPruned, snap.Prune.PagesTotal, 100*snap.Prune.PruneRatio,
			snap.Prune.SelectedRows, snap.Prune.TotalRows)
		fmt.Printf("  access path: %d outer rows vs %d pages  index %.4fs (%d lookups)  scan %.4fs  %.1fx\n",
			snap.Access.OuterRows, snap.Access.InnerPages, snap.Access.IndexSimSeconds,
			snap.Access.IndexLookups, snap.Access.ScanSimSeconds, snap.Access.Speedup)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func runFigure6(sfs []int, nodes int) {
	fmt.Println("== Figure 6 (left): re-optimization + online statistics overhead ==")
	rows, err := bench.Figure6Overhead(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatOverhead(rows))
	fmt.Println("== Figure 6 (right): predicate push-down overhead ==")
	pd, err := bench.Figure6Pushdown(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatPushdown(pd))
}

func runFigure7(sfs []int, nodes int) []bench.CompareRow {
	fmt.Println("== Figure 7: execution time comparison (simulated seconds) ==")
	rows, err := bench.Figure7(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatCompare(rows))
	printPlans(rows)
	return rows
}

func runFigure8(sfs []int, nodes int) {
	fmt.Println("== Figure 8: comparison with secondary indexes + INLJ (simulated seconds) ==")
	rows, err := bench.Figure8(sfs, nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Println(bench.FormatCompare(rows))
	printPlans(rows)
}

func printPlans(rows []bench.CompareRow) {
	fmt.Println("-- chosen plans --")
	for _, r := range rows {
		fmt.Printf("%s sf%d:\n", r.Query, r.SF)
		for _, s := range bench.StrategyOrder {
			fmt.Printf("  %-12s %s\n", s, r.Plan[s])
		}
	}
	fmt.Println()
}

func parseSFs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad scale factor %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scale factors given")
	}
	return out, nil
}

// stopCPUProfile, when profiling is active, flushes and closes the CPU
// profile exactly once; nil otherwise.
var stopCPUProfile func()

// flushProfiles finalizes the CPU profile and, when requested, writes the
// heap profile. Errors are reported but never fatal: profiles are flushed
// on the way out of fatal() itself.
func flushProfiles(memProfile string) {
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
	if memProfile == "" {
		return
	}
	f, err := os.Create(memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "joinbench: memprofile:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joinbench:", err)
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
	os.Exit(1)
}

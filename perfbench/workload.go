package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dynopt"
)

// workload is one traffic mix the benchmark runs against a DB.
type workload struct {
	name    string
	clients int  // closed-loop clients, each waiting for its last reply
	memo    bool // Config.PlanCacheEntries on, with the parameterized serve mix
	paged   bool // datasets converted to pages, real spill under a small budget
}

// Storage settings of the paged-spill workload: a page cache far smaller
// than the data and a per-node join budget small enough that Q17's largest
// build spills by size. The cache stays well under the governor's capacity
// (nodes × budget): a cache as large as the capacity keeps whatever share
// of it it once filled, so whether joins spill would depend on the run's
// history. A smaller budget spills more, and spill-file creation makes
// run-to-run times too noisy to compare (see README.md).
const (
	pagedCacheBytes   = 4 << 10
	pagedBudgetBytes  = 8 << 10
	planCacheEntries  = 64
	warmupQueries     = 24 // untimed queries before the loop: memo recorded, caches filled
	sequenceLength    = 1 << 14
	benchSF           = 5
	benchNodes        = 4
	benchSetupReps    = 5 // setup_s is the median of this many builds
	latencyPercentile = 0.95
)

var workloads = []workload{
	{name: "fig7-dynamic", clients: 1},
	{name: "serve-memo", clients: 2, memo: true},
	{name: "paged-spill", clients: 1, paged: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// item is one query of a workload's sequence: a statement and its bindings.
// key names the (query, binding) pair the expected rows are stored under.
type item struct {
	name   string // the statement's name
	key    string
	sql    string
	params map[string]dynopt.Value
}

// template is a statement and the values each of its parameters ranges over.
type template struct {
	name   string
	sql    string
	params []param
}

type param struct {
	name   string
	values []dynopt.Value
}

func intRange(lo, hi int64) []dynopt.Value {
	var out []dynopt.Value
	for v := lo; v <= hi; v++ {
		out = append(out, dynopt.Int(v))
	}
	return out
}

func strValues(ss ...string) []dynopt.Value {
	out := make([]dynopt.Value, len(ss))
	for i, s := range ss {
		out[i] = dynopt.Str(s)
	}
	return out
}

// templates returns the statements a workload cycles. The serve mix binds
// every parameter over its full range in the generated data: months 1-12,
// years 1998-2002 (date_dim's calendar), all five regions, both order
// statuses. Bindings outside the memoized regime send traffic down the
// replay fallback path.
func templates(w workload) []template {
	if !w.memo {
		return []template{
			{name: "Q17", sql: dynopt.TPCDSQ17()},
			{name: "Q50", sql: dynopt.TPCDSQ50()},
			{name: "Q8", sql: dynopt.TPCHQ8()},
			{name: "Q9", sql: dynopt.TPCHQ9()},
		}
	}
	dates := []param{{"moy", intRange(1, 12)}, {"year", intRange(1998, 2002)}}
	return []template{
		{name: "Q17P", sql: dynopt.TPCDSQ17P(), params: dates},
		{name: "Q50P", sql: dynopt.TPCDSQ50P(), params: dates},
		{name: "Q8P", sql: dynopt.TPCHQ8P(), params: []param{
			{"region", strValues("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")},
			{"status", strValues("F", "O")},
		}},
	}
}

// sequence draws a workload's query order and bindings from seed: rounds of
// a seeded permutation of the templates, each template bound independently.
// The data itself never depends on seed.
func sequence(w workload, seed int64, n int) []item {
	rng := rand.New(rand.NewSource(seed))
	tpls := templates(w)
	out := make([]item, 0, n)
	for len(out) < n {
		for _, ti := range rng.Perm(len(tpls)) {
			t := tpls[ti]
			it := item{name: t.name, key: t.name, sql: t.sql}
			if len(t.params) > 0 {
				it.params = map[string]dynopt.Value{}
				for _, p := range t.params {
					v := p.values[rng.Intn(len(p.values))]
					it.params[p.name] = v
					it.key += " " + p.name + "=" + v.String()
				}
			}
			out = append(out, it)
		}
	}
	return out[:n]
}

// distinct returns one item per key of seq, sorted by key.
func distinct(seq []item) []item {
	seen := map[string]bool{}
	var out []item
	for _, it := range seq {
		if !seen[it.key] {
			seen[it.key] = true
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// dirs are the on-disk locations of one DB instance's paged data and spill
// runs (paged-spill only).
type dirs struct{ data, spill string }

func newDirs(root string) (dirs, error) {
	d := dirs{data: filepath.Join(root, "data"), spill: filepath.Join(root, "spill")}
	for _, p := range []string{d.data, d.spill} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return d, err
		}
	}
	return d, nil
}

// config is the DB configuration of workload w at the given size.
func config(w workload, nodes int, d dirs) dynopt.Config {
	cfg := dynopt.Config{Nodes: nodes}
	if w.memo {
		cfg.PlanCacheEntries = planCacheEntries
	}
	if w.paged {
		cfg.DataDir = d.data
		cfg.SpillDir = d.spill
		cfg.PageCacheBytes = pagedCacheBytes
		cfg.MemoryPerNodeBytes = pagedBudgetBytes
	}
	return cfg
}

// load generates both TPC datasets and their secondary indexes into db. The
// generators use fixed internal seeds, so every call loads the same data.
func load(db *dynopt.DB, sf int) error {
	if _, err := dynopt.LoadTPCH(db, sf); err != nil {
		return fmt.Errorf("load tpch: %w", err)
	}
	if _, err := dynopt.LoadTPCDS(db, sf); err != nil {
		return fmt.Errorf("load tpcds: %w", err)
	}
	if err := dynopt.CreateTPCHIndexes(db); err != nil {
		return fmt.Errorf("tpch indexes: %w", err)
	}
	if err := dynopt.CreateTPCDSIndexes(db); err != nil {
		return fmt.Errorf("tpcds indexes: %w", err)
	}
	return nil
}

// setup builds the DB a workload runs against, reps times, and returns the
// last one with the duration of every build: data generation, load,
// indexes, and (paged-spill) conversion to pages. Each build gets its own
// directory under root.
func setup(w workload, sf, nodes, reps int, root string) (*dynopt.DB, []float64, error) {
	var db *dynopt.DB
	var times []float64
	for r := 0; r < reps; r++ {
		db = nil // the previous build can be collected while this one loads
		d, err := newDirs(filepath.Join(root, fmt.Sprintf("db%d", r)))
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		db = dynopt.Open(config(w, nodes, d))
		if err := load(db, sf); err != nil {
			return nil, nil, err
		}
		if w.paged {
			for _, name := range db.Datasets() {
				if err := db.ConvertToPaged(name, 0); err != nil {
					return nil, nil, fmt.Errorf("convert %s: %w", name, err)
				}
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return db, times, nil
}

package dynopt

import (
	"fmt"
	"reflect"
	"testing"

	"dynopt/internal/bench"
	"dynopt/internal/engine"
	"dynopt/internal/refeval"
)

// TestStreamingMatchesBatchAllStrategies checks every strategy of §7.2 on
// every Figure-7 query — without and with secondary indexes, so the INLJ
// plans of Figure 8 are covered too — against the independent reference
// evaluator (internal/refeval): nested loops over the stored rows, with no
// planner, hash table, or exchange in common with the engine. Rows compare
// as multisets (in ORDER BY key order where the query has one), floats to a
// relative 1e-9. The name predates the removal of the batch executors,
// which this reference replaces.
func TestStreamingMatchesBatchAllStrategies(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		env, err := bench.NewEnv(1, 4, indexed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range bench.Queries() {
			ctx := env.Fresh()
			ref, err := refeval.Eval(ctx.Catalog, ctx.UDFs, ctx.Params, q.SQL)
			if err != nil {
				t.Fatalf("%s: reference: %v", q.Name, err)
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("%s: reference result is empty; the comparison would be vacuous", q.Name)
			}
			for si := range env.Strategies() {
				name := fmt.Sprintf("indexed=%v/%s/%s", indexed, q.Name, env.Strategies()[si].Name())
				t.Run(name, func(t *testing.T) {
					// Strategies carry per-run state (pilot registries); build
					// a fresh one per execution.
					res, _, err := env.RunOneResult(env.Strategies()[si], q.SQL)
					if err != nil {
						t.Fatal(err)
					}
					if d := ref.Diff(res.Columns, res.Rows); d != "" {
						t.Errorf("result differs from the reference evaluator: %s", d)
					}
				})
			}
		}
	}
}

// TestDynamicChunkRowsInvariance runs the dynamic strategy on every
// Figure-7 query at Config.ChunkRows 1, 7, and 1024: the chunk capacity is
// a pipeline detail, so stage plans (which embed each materialized stage's
// row count), result rows in order, and every metered counter must be
// identical across the three.
func TestDynamicChunkRowsInvariance(t *testing.T) {
	type run struct {
		stages []string
		rows   string
		snap   Snapshot
	}
	runs := map[string][]run{}
	for _, cc := range []int{1, 7, 1024} {
		db := Open(Config{Nodes: 4, ChunkRows: cc})
		if _, err := LoadTPCDS(db, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTPCH(db, 1); err != nil {
			t.Fatal(err)
		}
		for _, q := range bench.Queries() {
			res, err := db.Query(q.SQL, &QueryOptions{Strategy: StrategyDynamic})
			if err != nil {
				t.Fatalf("%s at ChunkRows=%d: %v", q.Name, cc, err)
			}
			runs[q.Name] = append(runs[q.Name], run{res.Metrics.Stages, fmt.Sprint(res.Rows), res.Metrics.Counters})
		}
	}
	for name, rs := range runs {
		for i := 1; i < len(rs); i++ {
			if !reflect.DeepEqual(rs[i].stages, rs[0].stages) {
				t.Errorf("%s: stage plans differ across chunk sizes\n%v\n%v", name, rs[0].stages, rs[i].stages)
			}
			if rs[i].rows != rs[0].rows {
				t.Errorf("%s: rows differ across chunk sizes", name)
			}
			if rs[i].snap != rs[0].snap {
				t.Errorf("%s: counters differ across chunk sizes\n%+v\n%+v", name, rs[0].snap, rs[i].snap)
			}
		}
	}
}

// compareResults requires two engine results to agree exactly: columns,
// row count, and every row in order.
func compareResults(t *testing.T, a, b *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		t.Fatalf("columns diverged: %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count diverged: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if fmt.Sprint(a.Rows[i]) != fmt.Sprint(b.Rows[i]) {
			t.Fatalf("row %d diverged:\n%v\n%v", i, a.Rows[i], b.Rows[i])
		}
	}
}

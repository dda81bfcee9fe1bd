package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/memo"
	"dynopt/internal/tpcds"
	"dynopt/internal/tpch"
	"dynopt/internal/types"
)

// serveShape is one repeated parameterized statement of the serving
// workload: a fixed shape executed over rotating $param bindings, the
// traffic pattern the plan memo exists for.
type serveShape struct {
	Name     string
	SQL      string
	Bindings []map[string]types.Value
}

// serveShapes returns the serving workload: the parameterized variants of
// the evaluation queries with binding rotations that stay inside one
// workload regime (so a correct memo never needs to fall back).
func serveShapes() []serveShape {
	q50 := serveShape{Name: "Q50P", SQL: tpcds.Q50P()}
	for year := int64(1998); year <= 2000; year++ {
		for moy := int64(8); moy <= 10; moy++ {
			q50.Bindings = append(q50.Bindings,
				map[string]types.Value{"moy": types.Int(moy), "year": types.Int(year)})
		}
	}
	q17 := serveShape{Name: "Q17P", SQL: tpcds.Q17P()}
	for moy := int64(3); moy <= 6; moy++ {
		q17.Bindings = append(q17.Bindings,
			map[string]types.Value{"moy": types.Int(moy), "year": types.Int(2001)})
	}
	q8 := serveShape{Name: "Q8P", SQL: tpch.Q8P()}
	for _, region := range []string{"ASIA", "AMERICA", "EUROPE", "AFRICA"} {
		q8.Bindings = append(q8.Bindings,
			map[string]types.Value{"region": types.Str(region), "status": types.Str("F")})
	}
	return []serveShape{q50, q17, q8}
}

// ServePoint is one shape of the serving benchmark: throughput of the plain
// dynamic loop (cold: every execution re-pays push-down re-analysis,
// blocking re-optimization, and online statistics) versus the plan memo
// (hot: the first execution records, the rest replay under guardrails).
// Row equality between modes and a full hit rate are checked inside — a
// divergence is an error, so the bench doubles as an acceptance check in
// CI.
type ServePoint struct {
	Query         string  `json:"query"`
	SF            int     `json:"sf"`
	Nodes         int     `json:"nodes"`
	Runs          int     `json:"runs"`
	Bindings      int     `json:"bindings"`
	QueriesPerRun int     `json:"queries_per_run"`
	ColdQPS       float64 `json:"cold_qps"`    // median queries/sec, memo off
	HotQPS        float64 `json:"hot_qps"`     // median queries/sec, memo replay
	SpeedupPct    float64 `json:"speedup_pct"` // (hot-cold)/cold × 100
	HitRate       float64 `json:"hit_rate"`    // replayed fraction of timed hot queries
	Fallbacks     int64   `json:"fallbacks"`   // mid-query fallbacks observed (want 0)
}

// rotationsPerRun controls how many times the binding list is cycled per
// timed run.
const rotationsPerRun = 3

// ServeBench measures the serving workload at sf on nodes, runs times per
// mode, reporting medians. Each run executes the shape's bindings
// rotationsPerRun times back to back on one shared execution context — the
// sequential analogue of PR 1's serving loop.
func ServeBench(sf, nodes, runs int) ([]ServePoint, error) {
	if runs < 1 {
		runs = 1
	}
	env, err := NewEnv(sf, nodes, false)
	if err != nil {
		return nil, err
	}
	dynCfg := core.DefaultConfig()
	out := make([]ServePoint, 0, 3)
	for _, shape := range serveShapes() {
		nq := len(shape.Bindings) * rotationsPerRun
		pt := ServePoint{
			Query: shape.Name, SF: sf, Nodes: nodes, Runs: runs,
			Bindings: len(shape.Bindings), QueriesPerRun: nq,
		}
		// Reference rows per binding, from an untimed plain pass.
		refCtx := env.Fresh()
		refRows := make([]string, len(shape.Bindings))
		for i, b := range shape.Bindings {
			rows, _, err := serveOne(refCtx, &core.Dynamic{Cfg: dynCfg}, shape.SQL, b)
			if err != nil {
				return nil, fmt.Errorf("bench: %s reference: %w", shape.Name, err)
			}
			refRows[i] = rows
		}

		var coldQPS, hotQPS []float64
		for r := 0; r < runs; r++ {
			// Cold: no memo, every execution is the full dynamic loop.
			ctx := env.Fresh()
			runtime.GC()
			start := time.Now()
			for q := 0; q < nq; q++ {
				b := q % len(shape.Bindings)
				rows, _, err := serveOne(ctx, &core.Dynamic{Cfg: dynCfg}, shape.SQL, shape.Bindings[b])
				if err != nil {
					return nil, fmt.Errorf("bench: %s cold: %w", shape.Name, err)
				}
				if rows != refRows[b] {
					return nil, fmt.Errorf("bench: %s cold rows diverged on binding %d", shape.Name, b)
				}
			}
			coldQPS = append(coldQPS, float64(nq)/time.Since(start).Seconds())

			// Hot: shared memo; the first (untimed) execution records, the
			// timed rotation replays.
			store := memo.NewStore(64, memo.Options{})
			hctx := env.Fresh()
			if _, _, err := serveOne(hctx, &core.Dynamic{Cfg: dynCfg, Memo: store}, shape.SQL, shape.Bindings[0]); err != nil {
				return nil, fmt.Errorf("bench: %s warm: %w", shape.Name, err)
			}
			hits := 0
			runtime.GC()
			start = time.Now()
			for q := 0; q < nq; q++ {
				b := q % len(shape.Bindings)
				rows, rep, err := serveOne(hctx, &core.Dynamic{Cfg: dynCfg, Memo: store}, shape.SQL, shape.Bindings[b])
				if err != nil {
					return nil, fmt.Errorf("bench: %s hot: %w", shape.Name, err)
				}
				if rows != refRows[b] {
					return nil, fmt.Errorf("bench: %s hot rows diverged on binding %d", shape.Name, b)
				}
				if rep.CacheHit {
					hits++
					if rep.Reopts != 0 {
						return nil, fmt.Errorf("bench: %s replay crossed %d re-opt points", shape.Name, rep.Reopts)
					}
				}
			}
			hotQPS = append(hotQPS, float64(nq)/time.Since(start).Seconds())
			pt.HitRate = float64(hits) / float64(nq)
			pt.Fallbacks = store.Stats().Fallbacks
			if pt.HitRate < 1 {
				return nil, fmt.Errorf("bench: %s hit rate %.2f < 1 (%d fallbacks)", shape.Name, pt.HitRate, pt.Fallbacks)
			}
		}
		pt.ColdQPS = medianF(coldQPS)
		pt.HotQPS = medianF(hotQPS)
		if pt.ColdQPS > 0 {
			pt.SpeedupPct = 100 * (pt.HotQPS - pt.ColdQPS) / pt.ColdQPS
		}
		out = append(out, pt)
	}
	return out, nil
}

// serveOne executes one query with the given bindings on the shared serving
// context and returns the rendered rows and the report.
func serveOne(ctx *engine.Context, s core.Strategy, sql string, bindings map[string]types.Value) (string, *core.Report, error) {
	ctx.Params = bindings
	res, rep, err := s.Run(ctx, sql)
	if err != nil {
		return "", rep, err
	}
	var b strings.Builder
	for _, t := range res.Rows {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), rep, nil
}

// WriteServeJSON runs ServeBench and writes the BENCH_serve.json snapshot
// to path.
func WriteServeJSON(path string, sf, nodes, runs int) ([]ServePoint, error) {
	res, err := ServeBench(sf, nodes, runs)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(path, append(data, '\n'), 0o644)
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

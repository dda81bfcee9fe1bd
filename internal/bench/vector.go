package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/types"
)

// VectorMicro is one scalar-vs-vector substrate measurement: the same
// predicate over the same rows, once through the row-at-a-time scalar path
// and once through the columnar kernel — gather cost included, since the
// scan pays it per window.
type VectorMicro struct {
	Name           string  `json:"name"`
	Rows           int     `json:"rows"`
	Selectivity    float64 `json:"selectivity,omitempty"` // live fraction
	ScalarNsPerRow float64 `json:"scalar_ns_per_row"`
	VectorNsPerRow float64 `json:"vector_ns_per_row"`
	Speedup        float64 `json:"speedup"` // scalar / vector
}

// VectorReport is the BENCH_vector.json snapshot.
type VectorReport struct {
	WindowRows   int           `json:"window_rows"` // micro chunk capacity
	FilterMicros []VectorMicro `json:"filter_micros"`
}

// vecBenchRows builds the micro-benchmark table: int, float, and string
// columns with realistic value ranges and no NULLs (NULL handling is priced
// by the property tests; the micros measure the steady-state loops).
func vecBenchRows(n int) ([]types.Tuple, *types.Schema) {
	sch := types.NewSchema(
		types.Field{Name: "a", Kind: types.KindInt},
		types.Field{Name: "b", Kind: types.KindInt},
		types.Field{Name: "f", Kind: types.KindFloat},
		types.Field{Name: "s", Kind: types.KindString},
	)
	words := []string{"alder", "birch", "cedar", "elm", "fir", "maple", "oak", "pine", "rowan", "spruce"}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i % 1000)),
			types.Int(int64((i * 7) % 997)),
			types.Float(float64(i%1000) / 1000),
			types.Str(words[i%len(words)]),
		}
	}
	return rows, sch
}

// nsPerRow times fn (which must process every row once per call) and
// normalizes to per-row cost.
func nsPerRow(rows int, fn func() error) (float64, error) {
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return 0, benchErr
	}
	return float64(r.T.Nanoseconds()) / float64(r.N) / float64(rows), nil
}

// FilterMicros prices the vectorized predicate kernels against the compiled
// scalar path over window-at-a-time evaluation, exactly as the streaming
// scan runs them: the vector side pays ColCache gather + kernel, the scalar
// side pays one compiled-closure call per row. Both produce the same
// selection vectors.
func FilterMicros(rows, window int) ([]VectorMicro, error) {
	data, sch := vecBenchRows(rows)
	env := &expr.Env{Schema: sch, Params: map[string]types.Value{}, UDFs: expr.NewRegistry()}
	col := func(n string) expr.Expr { return &expr.Column{Name: n} }
	cases := []struct {
		name string
		e    expr.Expr
	}{
		{"int-lt", &expr.Compare{Op: expr.CmpLt, L: col("a"), R: &expr.Literal{Val: types.Int(500)}}},
		{"int-between", &expr.Between{X: col("b"), Lo: &expr.Literal{Val: types.Int(100)}, Hi: &expr.Literal{Val: types.Int(400)}}},
		{"float-lt", &expr.Compare{Op: expr.CmpLt, L: col("f"), R: &expr.Literal{Val: types.Float(0.25)}}},
		{"str-ge", &expr.Compare{Op: expr.CmpGe, L: col("s"), R: &expr.Literal{Val: types.Str("maple")}}},
		{"and-int-float", &expr.And{Kids: []expr.Expr{
			&expr.Compare{Op: expr.CmpGe, L: col("a"), R: &expr.Literal{Val: types.Int(200)}},
			&expr.Compare{Op: expr.CmpLt, L: col("f"), R: &expr.Literal{Val: types.Float(0.8)}},
		}}},
		{"or-int-str", &expr.Or{Kids: []expr.Expr{
			&expr.Compare{Op: expr.CmpLt, L: col("a"), R: &expr.Literal{Val: types.Int(100)}},
			&expr.Compare{Op: expr.CmpEq, L: col("s"), R: &expr.Literal{Val: types.Str("oak")}},
		}}},
	}
	out := make([]VectorMicro, 0, len(cases))
	cache := types.NewColCache(sch)
	sel := make([]int32, window)
	for _, c := range cases {
		pred, err := expr.Compile(c.e, env)
		if err != nil {
			return nil, err
		}
		kern, ok, err := expr.CompileVec(c.e, env)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("bench: %s did not vectorize", c.name)
		}
		live := 0
		scalarPass := func() error {
			live = 0
			for off := 0; off < len(data); off += window {
				end := off + window
				if end > len(data) {
					end = len(data)
				}
				win := data[off:end]
				out := sel[:0]
				for i, t := range win {
					v, err := pred(t)
					if err != nil {
						return err
					}
					if v.IsTrue() {
						out = append(out, int32(i))
					}
				}
				live += len(out)
			}
			return nil
		}
		vectorPass := func() error {
			live = 0
			for off := 0; off < len(data); off += window {
				end := off + window
				if end > len(data) {
					end = len(data)
				}
				win := data[off:end]
				cache.SetWindow(win)
				s := sel[:len(win)]
				for i := range s {
					s[i] = int32(i)
				}
				s, err := kern(win, cache, s)
				if err != nil {
					return err
				}
				live += len(s)
			}
			return nil
		}
		// Correctness cross-check before timing: identical live counts.
		if err := scalarPass(); err != nil {
			return nil, err
		}
		scalarLive := live
		if err := vectorPass(); err != nil {
			return nil, err
		}
		if live != scalarLive {
			return nil, fmt.Errorf("bench: %s live diverged: scalar %d vector %d", c.name, scalarLive, live)
		}
		m := VectorMicro{Name: c.name, Rows: rows, Selectivity: float64(live) / float64(rows)}
		if m.ScalarNsPerRow, err = nsPerRow(rows, scalarPass); err != nil {
			return nil, err
		}
		if m.VectorNsPerRow, err = nsPerRow(rows, vectorPass); err != nil {
			return nil, err
		}
		if m.VectorNsPerRow > 0 {
			m.Speedup = m.ScalarNsPerRow / m.VectorNsPerRow
		}
		out = append(out, m)
	}
	return out, nil
}

// VectorCompare assembles the vectorization report: the filter micros at
// the default chunk capacity. The micro table is sized cache-resident (16K
// rows ≈ 2.5MB with payloads): the micros price kernel dispatch against
// per-row scalar dispatch — the quantity the vectorized path actually
// changes — and a DRAM-latency-bound working set would charge the same
// pointer-chase stall to both arms and compress the ratio toward 1. In the
// pipeline a chunk is consumed right after its producer touched it, so
// cache-hot is also the representative state.
func VectorCompare() (*VectorReport, error) {
	const microRows, window = 16384, 1024
	rep := &VectorReport{WindowRows: window}
	var err error
	if rep.FilterMicros, err = FilterMicros(microRows, window); err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteVectorJSON runs VectorCompare and writes the BENCH_vector.json
// snapshot to path.
func WriteVectorJSON(path string) (*VectorReport, error) {
	rep, err := VectorCompare()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Package refeval is an independent reference evaluator for the engine's
// SQL subset. It shares the parser, the expression tree, the value type,
// and the stored datasets with the engine, and nothing else: no planner,
// no hash tables, no exchanges, no compiled or vectorized predicates, no
// chunk pipeline. A query is evaluated the naive way —
//
//   - each alias's local filters apply to its stored rows,
//   - bindings extend by nested loops, one alias at a time in a greedy
//     connected order, and each WHERE conjunct applies as soon as all of its
//     aliases are bound,
//   - GROUP BY, the count/sum/avg/min/max aggregates (NULL-skipping), ORDER
//     BY, and LIMIT then run over the joined bindings —
//
// so a result from any strategy and execution mode can be checked against
// it. It is meant for tests: the nested loops are quadratic by design.
package refeval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dynopt/internal/catalog"
	"dynopt/internal/expr"
	"dynopt/internal/sqlpp"
	"dynopt/internal/types"
)

// Result is an evaluated query: output column names, rows, and — for a
// query with ORDER BY — each row's order-key values, so a comparison can
// tell legitimately tied rows from misordered ones.
type Result struct {
	Columns   []string
	Rows      []types.Tuple
	OrderKeys []types.Tuple // aligned with Rows; nil without ORDER BY
}

// Eval parses, analyzes, and evaluates sql over the datasets in cat.
func Eval(cat *catalog.Catalog, udfs *expr.Registry, params map[string]types.Value, sql string) (*Result, error) {
	q, err := sqlpp.Parse(sql)
	if err != nil {
		return nil, err
	}
	g, err := sqlpp.Analyze(q, cat.Resolver())
	if err != nil {
		return nil, err
	}
	env := func(sch *types.Schema) *expr.Env { return &expr.Env{Schema: sch, Params: params, UDFs: udfs} }

	// Local filters, per alias.
	type table struct {
		schema *types.Schema
		rows   []types.Tuple
	}
	tables := map[string]*table{}
	for _, alias := range g.Aliases {
		ds, _ := cat.Get(g.Tables[alias].Dataset)
		if ds.IsPaged() {
			return nil, fmt.Errorf("refeval: dataset %s is paged; evaluate over its resident form", ds.Name)
		}
		tb := &table{schema: ds.Schema.Requalify(alias)}
		for _, part := range ds.Parts {
			for _, r := range part {
				ok, err := holds(g.Locals[alias], r, env(tb.schema))
				if err != nil {
					return nil, err
				}
				if ok {
					tb.rows = append(tb.rows, r)
				}
			}
		}
		tables[alias] = tb
	}

	// Nested-loop extension in a greedy connected order: start from the
	// smallest filtered table, then repeatedly bind the smallest table that
	// some conjunct connects to the bound set.
	var conjuncts []expr.Expr
	for _, w := range q.Where {
		if len(expr.QualifiersOf(w)) > 1 {
			conjuncts = append(conjuncts, w)
		}
	}
	bound := map[string]bool{}
	applied := make([]bool, len(conjuncts))
	var schema *types.Schema
	var rows []types.Tuple
	for len(bound) < len(g.Aliases) {
		next := ""
		for _, alias := range g.Aliases {
			if bound[alias] || (len(bound) > 0 && !connected(conjuncts, bound, alias)) {
				continue
			}
			if next == "" || len(tables[alias].rows) < len(tables[next].rows) {
				next = alias
			}
		}
		if next == "" {
			return nil, fmt.Errorf("refeval: join graph is disconnected")
		}
		tb := tables[next]
		bound[next] = true
		if schema == nil {
			schema, rows = tb.schema, tb.rows
			continue
		}
		schema = schema.Concat(tb.schema)
		var ready []expr.Expr
		for i, c := range conjuncts {
			if !applied[i] && allBound(c, bound) {
				ready = append(ready, c)
				applied[i] = true
			}
		}
		e := env(schema)
		var out []types.Tuple
		var buf types.Tuple
		for _, l := range rows {
			for _, r := range tb.rows {
				buf = append(append(buf[:0], l...), r...)
				ok, err := holds(ready, buf, e)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, append(types.Tuple(nil), buf...))
				}
			}
		}
		rows = out
	}
	return finish(q, rows, env(schema))
}

// holds reports whether every predicate evaluates to true on t.
func holds(preds []expr.Expr, t types.Tuple, env *expr.Env) (bool, error) {
	for _, p := range preds {
		v, err := p.Eval(t, env)
		if err != nil {
			return false, err
		}
		if !v.IsTrue() {
			return false, nil
		}
	}
	return true, nil
}

func allBound(e expr.Expr, bound map[string]bool) bool {
	for q := range expr.QualifiersOf(e) {
		if !bound[q] {
			return false
		}
	}
	return true
}

// connected reports whether some conjunct links alias to the bound set.
func connected(conjuncts []expr.Expr, bound map[string]bool, alias string) bool {
	for _, c := range conjuncts {
		qs := expr.QualifiersOf(c)
		if !qs[alias] {
			continue
		}
		for q := range qs {
			if bound[q] {
				return true
			}
		}
	}
	return false
}

// aggregate returns the aggregate function a SELECT item applies, if any.
func aggregate(e expr.Expr) (string, expr.Expr) {
	c, ok := e.(*expr.Call)
	if !ok || len(c.Args) != 1 {
		return "", nil
	}
	switch name := strings.ToLower(c.Name); name {
	case "count", "sum", "avg", "min", "max":
		return name, c.Args[0]
	}
	return "", nil
}

// finish applies GROUP BY, aggregates, ORDER BY, and LIMIT to the joined
// bindings. Plain SELECT and ORDER BY expressions of a grouped query must be
// functionally dependent on the grouping keys; without GROUP BY an
// aggregate query has one group and a plain query keeps every binding.
func finish(q *sqlpp.Query, rows []types.Tuple, env *expr.Env) (*Result, error) {
	if q.SelectStar {
		return nil, fmt.Errorf("refeval: SELECT * columns follow the plan's join order; name the columns")
	}
	res := &Result{}
	aggQuery := false
	for _, s := range q.Select {
		name := s.Alias
		if name == "" {
			name = s.Expr.SQL()
		}
		res.Columns = append(res.Columns, name)
		if fn, _ := aggregate(s.Expr); fn != "" {
			aggQuery = true
		}
	}

	// A group's first member stands for the group in plain SELECT and ORDER
	// BY expressions.
	type group struct{ members []types.Tuple }
	var groups []*group
	if aggQuery || len(q.GroupBy) > 0 {
		byKey := map[string]*group{}
		if aggQuery && len(q.GroupBy) == 0 {
			groups = []*group{{}}
		}
		for _, r := range rows {
			var key strings.Builder
			for _, ge := range q.GroupBy {
				v, err := ge.Eval(r, env)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&key, "%d:%s|", v.K, v)
			}
			var grp *group
			if len(q.GroupBy) == 0 {
				grp = groups[0]
			} else if grp = byKey[key.String()]; grp == nil {
				grp = &group{}
				byKey[key.String()] = grp
				groups = append(groups, grp)
			}
			grp.members = append(grp.members, r)
		}
	} else {
		for _, r := range rows {
			groups = append(groups, &group{members: []types.Tuple{r}})
		}
	}

	type outRow struct{ row, keys types.Tuple }
	var out []outRow
	for _, grp := range groups {
		var o outRow
		for _, s := range q.Select {
			fn, arg := aggregate(s.Expr)
			var v types.Value
			var err error
			switch {
			case fn != "":
				v, err = fold(fn, arg, grp.members, env)
			case len(grp.members) == 0:
				v = types.Null() // aggregate query over no rows
			default:
				v, err = s.Expr.Eval(grp.members[0], env)
			}
			if err != nil {
				return nil, err
			}
			o.row = append(o.row, v)
		}
		for _, ob := range q.OrderBy {
			v := types.Null()
			if len(grp.members) > 0 {
				var err error
				if v, err = ob.Expr.Eval(grp.members[0], env); err != nil {
					return nil, err
				}
			}
			o.keys = append(o.keys, v)
		}
		out = append(out, o)
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(out, func(a, b int) bool {
			for i, ob := range q.OrderBy {
				c := out[a].keys[i].Compare(out[b].keys[i])
				if c == 0 {
					continue
				}
				return (c < 0) != ob.Desc
			}
			return false
		})
	}
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	for _, o := range out {
		res.Rows = append(res.Rows, o.row)
		if len(q.OrderBy) > 0 {
			res.OrderKeys = append(res.OrderKeys, o.keys)
		}
	}
	return res, nil
}

// fold computes one aggregate over a group's bindings, skipping NULL
// inputs: count counts non-NULL values; sum and avg are floats over the
// numeric values (NULL when there are none); min and max compare values.
func fold(fn string, arg expr.Expr, members []types.Tuple, env *expr.Env) (types.Value, error) {
	var count int64
	var sum float64
	best := types.Null()
	for _, r := range members {
		v, err := arg.Eval(r, env)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() {
			continue
		}
		count++
		if f, ok := v.AsFloat(); ok {
			sum += f
		}
		if best.IsNull() || (fn == "min" && v.Compare(best) < 0) || (fn == "max" && v.Compare(best) > 0) {
			best = v
		}
	}
	switch fn {
	case "count":
		return types.Int(count), nil
	case "sum", "avg":
		if count == 0 {
			return types.Null(), nil
		}
		if fn == "avg" {
			sum /= float64(count)
		}
		return types.Float(sum), nil
	}
	return best, nil
}

// Diff compares an engine result against the reference and describes the
// first difference, or returns "" when they agree. Only the column count
// must match: the engine names an unaliased column after the query text the
// executing plan reconstructed, which differs by strategy. Rows compare as
// multisets; where the reference carries ORDER BY
// keys, each run of rows with equal keys must also hold the same positions
// in got. Floats compare to a relative 1e-9 (summation order differs between
// evaluators); every other value must match exactly, kind included.
func (r *Result) Diff(columns []string, got []types.Tuple) string {
	if len(columns) != len(r.Columns) {
		return fmt.Sprintf("columns %v, want %v", columns, r.Columns)
	}
	if len(got) != len(r.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(r.Rows))
	}
	if r.OrderKeys == nil {
		return diffMultiset(got, r.Rows)
	}
	for lo := 0; lo < len(r.Rows); {
		hi := lo + 1
		for hi < len(r.Rows) && tupleEqual(r.OrderKeys[hi], r.OrderKeys[lo]) {
			hi++
		}
		if d := diffMultiset(got[lo:hi], r.Rows[lo:hi]); d != "" {
			return fmt.Sprintf("rows %d..%d (one ORDER BY key): %s", lo, hi-1, d)
		}
		lo = hi
	}
	return ""
}

// diffMultiset sorts both sides canonically and compares them pairwise.
func diffMultiset(got, want []types.Tuple) string {
	g, w := sortedCopy(got), sortedCopy(want)
	for i := range w {
		if !rowEqual(g[i], w[i]) {
			return fmt.Sprintf("row %s has no match (nearest got %s)", w[i], g[i])
		}
	}
	return ""
}

// sortedCopy orders rows by their non-float values exactly, then by their
// float values, so rows that differ only by float rounding sort alike.
func sortedCopy(rows []types.Tuple) []types.Tuple {
	out := append([]types.Tuple(nil), rows...)
	exact := func(t types.Tuple) string {
		var b strings.Builder
		for _, v := range t {
			if v.K != types.KindFloat {
				fmt.Fprintf(&b, "%d:%s|", v.K, v)
			}
		}
		return b.String()
	}
	sort.SliceStable(out, func(a, b int) bool {
		ka, kb := exact(out[a]), exact(out[b])
		if ka != kb {
			return ka < kb
		}
		for i := range out[a] {
			if c := out[a][i].Compare(out[b][i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func rowEqual(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K {
			return false
		}
		if a[i].K == types.KindFloat {
			x, _ := a[i].AsFloat()
			y, _ := b[i].AsFloat()
			if x != y && math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
			continue
		}
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

func tupleEqual(a, b types.Tuple) bool {
	for i := range a {
		if a[i].K != b[i].K || a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

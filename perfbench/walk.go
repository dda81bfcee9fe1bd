package main

import (
	"fmt"
	"sort"

	benchenv "dynopt/internal/bench"
	"dynopt/internal/catalog"
	"dynopt/internal/cluster"
	"dynopt/internal/core"
	"dynopt/internal/engine"
	"dynopt/internal/expr"
	"dynopt/internal/plan"
	"dynopt/internal/sqlpp"
	"dynopt/internal/storage"
)

// walkEnv is a second copy of a workload's data, loaded by the repository's
// experiment environment (internal/bench) so the traced run can call each
// layer's entry point directly on the inputs db.Query just ran. It has the
// same size, storage layout, page-cache budget, and join budget as the DB
// under test.
type walkEnv struct {
	cl       *cluster.Cluster
	cat      *catalog.Catalog
	udfs     *expr.Registry
	spillDir string
	cfg      core.Config
}

func newWalkEnv(w workload, sf, nodes int, d dirs) (*walkEnv, error) {
	env, err := benchenv.NewEnv(sf, nodes, true)
	if err != nil {
		return nil, err
	}
	if w.paged {
		if err := env.ConvertPaged(d.data, 0, pagedCacheBytes, nil); err != nil {
			return nil, err
		}
	}
	ctx := env.Fresh()
	e := &walkEnv{cl: ctx.Cluster, cat: ctx.Catalog, udfs: ctx.UDFs, cfg: core.DefaultConfig()}
	if w.paged {
		e.cl.SetMemoryPerNodeBytes(pagedBudgetBytes)
		e.cfg.Algo.SpillBudgetBytes = pagedBudgetBytes
		e.spillDir = d.spill
		// The cache reserves its pages from this cluster's governor for the
		// env's lifetime, as a DB's does. Pages cached before the hooks are
		// set were never reserved, so they are dropped first.
		cache := env.PageCache()
		cache.Close()
		grant := e.cl.Governor().Grant()
		cache.Reserve = grant.Reserve
		cache.Release = grant.Release
	}
	return e, nil
}

// run calls each layer's entry point on one query's inputs, each call a
// span under root: parse, analyze, shape key, estimation (table states and
// every join edge), full planning, a scan of every alias with its local
// filter, materialization with online statistics of each filtered scan (the
// push-down sink), execution of the plan, and finish. The calls are made in
// a private execution scope, like a query's.
func (e *walkEnv) run(b *spanBuf, root, qid int64, it item) error {
	scope := fmt.Sprintf("w%d_", qid)
	defer e.cat.DropPrefix(catalog.TempPrefix(scope))
	grant := e.cl.Governor().Grant()
	defer grant.Close()
	ctx := &engine.Context{
		Cluster: e.cl, Catalog: e.cat, UDFs: e.udfs, Params: it.params,
		Acct: &cluster.Accounting{}, Scope: scope, Grant: grant,
		PageStats: &storage.PageScanStats{},
	}
	if e.spillDir != "" {
		sm := storage.NewSpillManager(e.spillDir, scope)
		defer sm.Sweep()
		ctx.Spill = sm
	}
	span := func(name string, fn func() error) error {
		if err := b.time(name, root, qid, fn); err != nil {
			return fmt.Errorf("walk %s %s: %w", it.key, name, err)
		}
		return nil
	}

	var q *sqlpp.Query
	var g *sqlpp.Graph
	var err error
	if err := span("sqlpp.parse", func() error { q, err = sqlpp.Parse(it.sql); return err }); err != nil {
		return err
	}
	if err := span("sqlpp.analyze", func() error { g, err = sqlpp.Analyze(q, e.cat.Resolver()); return err }); err != nil {
		return err
	}
	if err := span("core.shape_key", func() error { core.ShapeKey(g, e.cfg); return nil }); err != nil {
		return err
	}
	est := &core.Estimator{Cat: e.cat, Reg: e.cat.Stats()}
	var tables core.Tables
	if err := span("core.estimate", func() error {
		if tables, err = core.BuildTables(est, g, g.NeededColumns(), q.SelectStar); err != nil {
			return err
		}
		for _, edge := range g.Joins {
			if _, err := est.JoinEstimate(edge, tables); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var tree *plan.Node
	if err := span("core.plan", func() error {
		if tree, err = core.PlanFull(est, g, tables, e.cfg.Algo); err != nil {
			return err
		}
		plan.AnnotateProjections(tree, core.RequiredOutputColumns(g))
		return nil
	}); err != nil {
		return err
	}
	aliases := append([]string(nil), g.Aliases...)
	sort.Strings(aliases)
	for _, alias := range aliases {
		info := tables[alias]
		ds, ok := e.cat.Get(info.Dataset)
		if !ok {
			return fmt.Errorf("walk %s: dataset %q missing", it.key, info.Dataset)
		}
		var rel *engine.Relation
		if err := span("engine.scan", func() error {
			rel, err = engine.Scan(ctx, ds, alias, info.Filter, info.Project)
			return err
		}); err != nil {
			return err
		}
		if info.Filter == nil {
			continue
		}
		if err := span("engine.materialize", func() error {
			fields := map[string]bool{}
			for _, f := range rel.Schema.Fields {
				fields[sqlpp.FlattenName(f.Qualifier, f.Name)] = true
			}
			_, _, err := engine.Materialize(ctx, rel, ctx.TempName("pred_"+alias), fields)
			return err
		}); err != nil {
			return err
		}
	}
	var rel *engine.Relation
	if err := span("engine.execute", func() error { rel, err = engine.Execute(ctx, tree); return err }); err != nil {
		return err
	}
	return span("engine.finish", func() error { _, err := engine.Finish(ctx, q, rel); return err })
}

package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dynopt/internal/cluster"
	"dynopt/internal/expr"
	"dynopt/internal/faults/leakcheck"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// testChunkRows, when nonzero, is applied by testCtx to Context.ChunkRows —
// the same field Config.ChunkRows feeds through Open — so chunk-boundary
// tests exercise the real configuration path rather than a test backdoor.
var testChunkRows int

// withChunkCap shrinks the pipeline chunk size for the duration of a test
// so chunk boundaries (size-1 chunks, rows exactly at capacity) are
// exercised on small inputs.
func withChunkCap(t *testing.T, n int) {
	t.Helper()
	old := testChunkRows
	testChunkRows = n
	t.Cleanup(func() { testChunkRows = old })
}

// relRows flattens a relation partition-by-partition for exact (order
// included) comparison.
func relRows(rel *Relation) []string {
	var out []string
	for p, part := range rel.Parts {
		for _, t := range part {
			out = append(out, fmt.Sprintf("p%d:%s", p, t))
		}
	}
	return out
}

// relArm is the relation-in arm of runBothModes: a join whose inputs
// arrive materialized (ScanByName relations) through the Relation-in entry
// points. It returns the join output and the rows a nested-loop join of the
// same inputs yields.
type relArm func(ctx *Context) (*Relation, []string, error)

// scanRel names a ScanByName input of a relation-in arm.
func scanRel(dataset, alias string, filter expr.Expr, project []string) func(ctx *Context) (*Relation, error) {
	return func(ctx *Context) (*Relation, error) { return ScanByName(ctx, dataset, alias, filter, project) }
}

// relJoinArm builds the relation-in arm of a hash or broadcast join (join
// is HashJoin or BroadcastJoin).
func relJoinArm(join func(ctx *Context, left, right *Relation, leftKeys, rightKeys []string, buildLeft bool) (*Relation, error),
	left, right func(ctx *Context) (*Relation, error), leftKeys, rightKeys []string, buildLeft bool) relArm {
	return func(ctx *Context) (*Relation, []string, error) {
		l, err := left(ctx)
		if err != nil {
			return nil, nil, err
		}
		r, err := right(ctx)
		if err != nil {
			return nil, nil, err
		}
		out, err := join(ctx, l, r, leftKeys, rightKeys, buildLeft)
		if err != nil {
			return nil, nil, err
		}
		return out, nestedLoopJoin(l.Schema, allRows(l.Parts), r.Schema, allRows(r.Parts), leftKeys, rightKeys), nil
	}
}

// relIndexNLArm builds the relation-in arm of an index nested-loop join
// over a resident inner dataset; the reference reads the inner's stored
// rows directly, so it meters nothing.
func relIndexNLArm(outer func(ctx *Context) (*Relation, error), inner, alias string, outerKeys, innerKeys []string) relArm {
	return func(ctx *Context) (*Relation, []string, error) {
		o, err := outer(ctx)
		if err != nil {
			return nil, nil, err
		}
		ds, _ := ctx.Catalog.Get(inner)
		out, err := IndexNLJoin(ctx, o, ds, alias, outerKeys, innerKeys, nil)
		if err != nil {
			return nil, nil, err
		}
		qualified := make([]string, len(innerKeys))
		for i, k := range innerKeys {
			qualified[i] = alias + "." + k
		}
		return out, nestedLoopJoin(o.Schema, allRows(o.Parts), ds.Schema.Requalify(alias), allRows(ds.Parts), outerKeys, qualified), nil
	}
}

func allRows(parts [][]types.Tuple) []types.Tuple {
	var out []types.Tuple
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// nestedLoopJoin is the reference join: every (l, r) pair whose key
// columns are Equal yields l⧺r. Rows come back rendered and sorted.
func nestedLoopJoin(lSchema *types.Schema, lRows []types.Tuple, rSchema *types.Schema, rRows []types.Tuple, lKeys, rKeys []string) []string {
	var out []string
	for _, l := range lRows {
		for _, r := range rRows {
			match := true
			for k := range lKeys {
				if !l[lSchema.MustIndex(lKeys[k])].Equal(r[rSchema.MustIndex(rKeys[k])]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, append(append(types.Tuple{}, l...), r...).String())
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkRowsAgainst requires rel's rows to equal want (rendered and sorted)
// as a multiset.
func checkRowsAgainst(t *testing.T, rel *Relation, want []string) {
	t.Helper()
	got := make([]string, 0, len(want))
	for _, row := range allRows(rel.Parts) {
		got = append(got, row.String())
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows differ from the nested-loop reference: got %d rows, want %d", len(got), len(want))
	}
}

// runBothModes executes the relation-in and scan-fed forms of the same
// join job on fresh but identically loaded contexts and requires identical
// rows (order included), identical schema and partitioning metadata, and
// identical counters; the rows must also equal the relation-in arm's
// nested-loop reference as a multiset. It returns the output row count and
// the relation-in and scan-fed counter snapshots.
func runBothModes(t *testing.T, nodes int, load func(ctx *Context),
	relJob relArm, streamJob func(ctx *Context) (*Relation, error)) (int, [2]cluster.Snapshot) {
	t.Helper()
	relCtx, streamCtx := testCtx(t, nodes), testCtx(t, nodes)
	load(relCtx)
	b, want, err := relJob(relCtx)
	if err != nil {
		t.Fatalf("relation-in: %v", err)
	}
	load(streamCtx)
	s, err := streamJob(streamCtx)
	if err != nil {
		t.Fatalf("scan-fed: %v", err)
	}
	bsnap, ssnap := relCtx.Cluster.Acct().Snapshot(), streamCtx.Cluster.Acct().Snapshot()
	if bsnap != ssnap {
		t.Errorf("counters diverged\nrelation-in: %+v\nscan-fed:    %+v", bsnap, ssnap)
	}
	br, sr := relRows(b), relRows(s)
	if len(br) != len(sr) {
		t.Fatalf("row count diverged: relation-in %d, scan-fed %d", len(br), len(sr))
	}
	for i := range br {
		if br[i] != sr[i] {
			t.Fatalf("row %d diverged:\nrelation-in: %s\nscan-fed:    %s", i, br[i], sr[i])
		}
	}
	checkRowsAgainst(t, b, want)
	if b.Schema.String() != s.Schema.String() {
		t.Errorf("schema diverged: %s vs %s", b.Schema, s.Schema)
	}
	if fmt.Sprint(b.PartCols) != fmt.Sprint(s.PartCols) {
		t.Errorf("PartCols diverged: %v vs %v", b.PartCols, s.PartCols)
	}
	return len(br), [2]cluster.Snapshot{bsnap, ssnap}
}

// TestStreamMatchesBatchChunkBoundaries sweeps the scan-fed joins across
// chunk capacities that land rows exactly at, below, and far beyond chunk
// boundaries, including empty partitions (more partitions than rows) and
// selective filters that empty entire scan windows. Each case must match the
// relation-in form of the same join and a nested-loop reference (the name
// predates the removal of the batch executors; runBothModes describes the
// arms).
func TestStreamMatchesBatchChunkBoundaries(t *testing.T) {
	leakcheck.Check(t)
	payFilter := func() expr.Expr {
		return &expr.Compare{Op: expr.CmpGe,
			L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(900)}}
	}
	for _, cc := range []int{1, 3, 25, 1024} {
		t.Run(fmt.Sprintf("chunkCap=%d", cc), func(t *testing.T) {
			withChunkCap(t, cc)
			// 100 rows over 4 nodes: partitions hold ~25 rows, so cc=25 puts
			// rows exactly at capacity; cc=1 forces a chunk per row. The dim
			// side holds 3 rows over 4 nodes, leaving at least one partition
			// empty.
			load := func(ctx *Context) {
				register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 3))
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
			}
			t.Run("hash-scattered", func(t *testing.T) {
				// Probe (fact) is partitioned on id but joined on fk: the
				// scatter exchange runs.
				runBothModes(t, 4, load,
					relJoinArm(HashJoin, scanRel("fact", "f", nil, nil), scanRel("dim", "d", nil, nil), []string{"f.fk"}, []string{"d.id"}, false),
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
							if err != nil {
								return err
							}
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							// buildLeft=false in the relation-in call means the
							// dim (right) side builds; probe columns form the
							// left half, so buildFirst=false.
							return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
			})
			t.Run("hash-prepartitioned", func(t *testing.T) {
				// Probe pre-partitioned on the join key: the exchange is
				// skipped and the local pipeline runs.
				runBothModes(t, 4, load,
					relJoinArm(HashJoin, scanRel("fact", "f", nil, nil), scanRel("dim", "d", nil, nil), []string{"f.id"}, []string{"d.id"}, false),
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
							if err != nil {
								return err
							}
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.id"}, false, mk)
						})
					})
			})
			t.Run("broadcast", func(t *testing.T) {
				runBothModes(t, 4, load,
					relJoinArm(BroadcastJoin, scanRel("fact", "f", nil, nil), scanRel("dim", "d", nil, nil), []string{"f.fk"}, []string{"d.id"}, false),
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							build, err := Scan(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
							if err != nil {
								return err
							}
							return BroadcastJoinStream(ctx, build, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
			})
			t.Run("indexnl", func(t *testing.T) {
				loadIdx := func(ctx *Context) {
					load(ctx)
					ds, _ := ctx.Catalog.Get("fact")
					if _, err := storage.BuildIndex(ds, "fk"); err != nil {
						t.Fatal(err)
					}
				}
				runBothModes(t, 4, loadIdx,
					relIndexNLArm(scanRel("dim", "d", nil, nil), "fact", "f", []string{"d.id"}, []string{"fk"}),
					func(ctx *Context) (*Relation, error) {
						ds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							return IndexNLJoinStream(ctx, dsrc, ds, "f", []string{"d.id"}, []string{"fk"}, nil, mk)
						})
					})
			})
			t.Run("filtered-scan-join", func(t *testing.T) {
				// Selective filter empties most scan windows; projection
				// sends view chunks (Chunk.Proj) down the pipeline.
				runBothModes(t, 4, load,
					relJoinArm(HashJoin, scanRel("fact", "f", payFilter(), []string{"id", "fk"}), scanRel("dim", "d", nil, nil), []string{"f.fk"}, []string{"d.id"}, false),
					func(ctx *Context) (*Relation, error) {
						fds, _ := ctx.Catalog.Get("fact")
						dds, _ := ctx.Catalog.Get("dim")
						return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
							fsrc, err := ScanSource(ctx, fds, "f", payFilter(), []string{"id", "fk"})
							if err != nil {
								return err
							}
							dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
							if err != nil {
								return err
							}
							return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
						})
					})
			})
		})
	}
}

// TestStreamMatchesBatchEmptyInputs: zero-row probe and build sides flow
// through the pipeline without emitting chunks, in both runBothModes arms.
func TestStreamMatchesBatchEmptyInputs(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 2)
	load := func(ctx *Context) {
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, nil)
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}})
	}
	runBothModes(t, 4, load,
		relJoinArm(HashJoin, scanRel("fact", "f", nil, nil), scanRel("dim", "d", nil, nil), []string{"f.fk"}, []string{"d.id"}, false),
		func(ctx *Context) (*Relation, error) {
			fds, _ := ctx.Catalog.Get("fact")
			dds, _ := ctx.Catalog.Get("dim")
			return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				fsrc, err := ScanSource(ctx, fds, "f", nil, nil)
				if err != nil {
					return err
				}
				dsrc, err := ScanSource(ctx, dds, "d", nil, nil)
				if err != nil {
					return err
				}
				return HashJoinStreamSources(ctx, dsrc, fsrc, []string{"d.id"}, []string{"f.fk"}, false, mk)
			})
		})
}

// registerTyped registers a dataset with an explicit schema, for tests that
// need non-int columns alongside the int helpers.
func registerTyped(t *testing.T, ctx *Context, name string, pk []string, schema *types.Schema, rows []types.Tuple) *storage.Dataset {
	t.Helper()
	ds, st, err := storage.Build(name, schema, pk, rows, ctx.Cluster.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Catalog.Register(ds, st); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStreamMatchesBatchSelChunks pins the selection-vector chunk form
// end-to-end: a filter without projection emits stored windows with a Sel
// sidecar, which must flow through the scatter exchange and the local join
// pipeline (joinInto over the selection) with results and counters identical
// to the relation-in arm, whose filtered scan materializes dense rows.
// Covers the vectorized int and string kernels, NULLs in filtered columns,
// and the scalar fallback for UDF predicates.
func TestStreamMatchesBatchSelChunks(t *testing.T) {
	leakcheck.Check(t)
	strRows := func(n int) []types.Tuple {
		names := []string{"ash", "mint", "zinc", "kelp", "moss", "alder"}
		rows := make([]types.Tuple, n)
		for i := range rows {
			nm := types.Str(names[i%len(names)])
			if i%11 == 0 {
				nm = types.Null() // NULL never passes the filter, both modes
			}
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 3)), nm}
		}
		return rows
	}
	strSchema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "fk", Kind: types.KindInt},
		types.Field{Name: "name", Kind: types.KindString},
	)
	joinStream := func(probe, build string, probeKey, buildKey string, filter expr.Expr) func(ctx *Context) (*Relation, error) {
		return func(ctx *Context) (*Relation, error) {
			pds, _ := ctx.Catalog.Get(probe)
			bds, _ := ctx.Catalog.Get(build)
			return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				psrc, err := ScanSource(ctx, pds, "f", filter, nil)
				if err != nil {
					return err
				}
				bsrc, err := ScanSource(ctx, bds, "d", nil, nil)
				if err != nil {
					return err
				}
				return HashJoinStreamSources(ctx, bsrc, psrc, []string{buildKey}, []string{probeKey}, false, mk)
			})
		}
	}
	joinRel := func(probe, build string, probeKey, buildKey string, filter expr.Expr) relArm {
		return relJoinArm(HashJoin, scanRel(probe, "f", filter, nil), scanRel(build, "d", nil, nil), []string{probeKey}, []string{buildKey}, false)
	}
	for _, cc := range []int{3, 25} {
		t.Run(fmt.Sprintf("chunkCap=%d", cc), func(t *testing.T) {
			withChunkCap(t, cc)
			loadInt := func(ctx *Context) {
				register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(100, 3))
				register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
			}
			t.Run("int-filter-scattered", func(t *testing.T) {
				// Partial-pass windows (pay%70<35 keeps runs of rows) emit sel
				// chunks into the scatter exchange: the key prehash walks Sel.
				filt := &expr.Compare{Op: expr.CmpLt,
					L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(500)}}
				runBothModes(t, 4, loadInt,
					joinRel("fact", "dim", "f.fk", "d.id", filt),
					joinStream("fact", "dim", "f.fk", "d.id", filt))
			})
			t.Run("int-filter-prepartitioned", func(t *testing.T) {
				// Probe pre-partitioned on the join key: sel chunks skip the
				// exchange and hit the probe loop directly.
				filt := &expr.Compare{Op: expr.CmpGe,
					L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(300)}}
				runBothModes(t, 4, loadInt,
					joinRel("fact", "dim", "f.id", "d.id", filt),
					joinStream("fact", "dim", "f.id", "d.id", filt))
			})
			t.Run("string-filter", func(t *testing.T) {
				// String comparison kernel over a column with NULLs.
				load := func(ctx *Context) {
					registerTyped(t, ctx, "fact", []string{"id"}, strSchema, strRows(90))
					register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{0, 10}, {1, 11}, {2, 12}})
				}
				filt := &expr.Compare{Op: expr.CmpGe,
					L: &expr.Column{Qualifier: "f", Name: "name"}, R: &expr.Literal{Val: types.Str("m")}}
				runBothModes(t, 4, load,
					joinRel("fact", "dim", "f.fk", "d.id", filt),
					joinStream("fact", "dim", "f.fk", "d.id", filt))
			})
			t.Run("udf-filter", func(t *testing.T) {
				// A Call predicate has no kernel: the cursor filters with the
				// scalar Compiled but still emits sel chunks.
				load := func(ctx *Context) {
					loadInt(ctx)
					if err := ctx.UDFs.Register(expr.UDF{Name: "selmod", Fn: func(args []types.Value) (types.Value, error) {
						if args[0].IsNull() {
							return types.Null(), nil
						}
						return types.Int(args[0].I() % 7), nil
					}}); err != nil {
						t.Fatal(err)
					}
				}
				filt := &expr.Compare{Op: expr.CmpNe,
					L: &expr.Call{Name: "selmod", Args: []expr.Expr{&expr.Column{Qualifier: "f", Name: "id"}}},
					R: &expr.Literal{Val: types.Int(0)}}
				runBothModes(t, 4, load,
					joinRel("fact", "dim", "f.fk", "d.id", filt),
					joinStream("fact", "dim", "f.fk", "d.id", filt))
			})
		})
	}
}

// TestStreamSpillSelChunks drives sel chunks into the spilling DHHJ probe:
// a filtered, unprojected probe side streams Rows+Sel chunks whose live rows
// and per-row hashes chunkSeq must walk through the selection.
func TestStreamSpillSelChunks(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 7)
	filt := func() expr.Expr {
		return &expr.Compare{Op: expr.CmpGe,
			L: &expr.Column{Qualifier: "d", Name: "attr"}, R: &expr.Literal{Val: types.Int(60)}}
	}
	run := func(relationIn bool) ([]string, cluster.Snapshot) {
		ctx := testCtx(t, 2)
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(4000, 64))
		dim := make([][]int64, 64)
		for i := range dim {
			dim[i] = []int64{int64(i), int64(i * 3)}
		}
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
		fact, _ := ctx.Catalog.Get("fact")
		ctx.Cluster.SetMemoryPerNodeBytes(fact.ByteSize() / int64(2*8))
		ctx.Spill = storage.NewSpillManager(t.TempDir(), "selspill_")
		ctx.Grant = ctx.Cluster.Governor().Grant()
		defer ctx.Grant.Close()
		var rel *Relation
		var err error
		if relationIn {
			var want []string
			rel, want, err = relJoinArm(HashJoin, scanRel("fact", "f", nil, nil), scanRel("dim", "d", filt(), nil),
				[]string{"f.fk"}, []string{"d.id"}, true)(ctx)
			if err == nil {
				checkRowsAgainst(t, rel, want)
			}
		} else {
			fds, _ := ctx.Catalog.Get("fact")
			dds, _ := ctx.Catalog.Get("dim")
			rel, err = collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				fsrc, serr := ScanSource(ctx, fds, "f", nil, nil)
				if serr != nil {
					return serr
				}
				dsrc, serr := ScanSource(ctx, dds, "d", filt(), nil)
				if serr != nil {
					return serr
				}
				return HashJoinStreamSources(ctx, fsrc, dsrc, []string{"f.fk"}, []string{"d.id"}, true, mk)
			})
		}
		if err != nil {
			t.Fatalf("relationIn=%v: %v", relationIn, err)
		}
		if err := ctx.Spill.Sweep(); err != nil {
			t.Fatal(err)
		}
		return relRows(rel), ctx.Cluster.Acct().Snapshot()
	}
	brows, bsnap := run(true)
	srows, ssnap := run(false)
	if bsnap.SpillBytes == 0 {
		t.Fatal("budget did not force spilling; test is vacuous")
	}
	if bsnap != ssnap {
		t.Errorf("counters diverged\nrelation-in: %+v\nscan-fed:    %+v", bsnap, ssnap)
	}
	if len(brows) != len(srows) {
		t.Fatalf("row count diverged: %d vs %d", len(brows), len(srows))
	}
	for i := range brows {
		if brows[i] != srows[i] {
			t.Fatalf("row %d diverged: %s vs %s", i, brows[i], srows[i])
		}
	}
}

// TestStreamSpillMatchesBatch runs the real-spill DHHJ relation-in and
// scan-fed under a budget forcing eviction: identical rows and identical
// spill metering, with the scan-fed probe arriving chunk-by-chunk and the
// relation-in rows matching a nested-loop reference.
func TestStreamSpillMatchesBatch(t *testing.T) {
	leakcheck.Check(t)
	withChunkCap(t, 7)
	type res struct {
		rows []string
		snap cluster.Snapshot
	}
	run := func(relationIn bool) res {
		ctx := testCtx(t, 2)
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(4000, 64))
		dim := make([][]int64, 64)
		for i := range dim {
			dim[i] = []int64{int64(i), int64(i * 3)}
		}
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dim)
		fact, _ := ctx.Catalog.Get("fact")
		ctx.Cluster.SetMemoryPerNodeBytes(fact.ByteSize() / int64(2*8)) // 1/8 of per-node build bytes
		ctx.Spill = storage.NewSpillManager(t.TempDir(), "pipe_")
		ctx.Grant = ctx.Cluster.Governor().Grant()
		defer ctx.Grant.Close()
		var rel *Relation
		var err error
		if relationIn {
			var want []string
			rel, want, err = relJoinArm(HashJoin, scanRel("fact", "f", nil, nil), scanRel("dim", "d", nil, nil),
				[]string{"f.fk"}, []string{"d.id"}, true)(ctx)
			if err == nil {
				checkRowsAgainst(t, rel, want)
			}
		} else {
			fds, _ := ctx.Catalog.Get("fact")
			dds, _ := ctx.Catalog.Get("dim")
			rel, err = collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				fsrc, serr := ScanSource(ctx, fds, "f", nil, nil)
				if serr != nil {
					return serr
				}
				dsrc, serr := ScanSource(ctx, dds, "d", nil, nil)
				if serr != nil {
					return serr
				}
				// fact (left) builds and spills; dim probes chunk-by-chunk.
				return HashJoinStreamSources(ctx, fsrc, dsrc, []string{"f.fk"}, []string{"d.id"}, true, mk)
			})
		}
		if err != nil {
			t.Fatalf("relationIn=%v: %v", relationIn, err)
		}
		if err := ctx.Spill.Sweep(); err != nil {
			t.Fatal(err)
		}
		return res{rows: relRows(rel), snap: ctx.Cluster.Acct().Snapshot()}
	}
	b, s := run(true), run(false)
	if b.snap.SpillBytes == 0 {
		t.Fatal("budget did not force spilling; test is vacuous")
	}
	if b.snap != s.snap {
		t.Errorf("counters diverged\nrelation-in: %+v\nscan-fed:    %+v", b.snap, s.snap)
	}
	if len(b.rows) != len(s.rows) {
		t.Fatalf("row count diverged: %d vs %d", len(b.rows), len(s.rows))
	}
	for i := range b.rows {
		if b.rows[i] != s.rows[i] {
			t.Fatalf("row %d diverged: %s vs %s", i, b.rows[i], s.rows[i])
		}
	}
}

// TestForEachPartBoundedWorkers pins the worker-pool contract: concurrency
// never exceeds GOMAXPROCS, partitions are claimed in index order
// (work-conserving — a freed worker immediately takes the next pending
// partition), and a skewed partition set still completes with every
// partition executed exactly once.
func TestForEachPartBoundedWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const nparts = 64
	var inFlight, peak atomic.Int64
	var started atomic.Int64
	ran := make([]atomic.Int64, nparts)
	starts := make([]int64, nparts) // start sequence per partition
	err := forEachPart(nparts, func(p int) error {
		cur := inFlight.Add(1)
		for {
			pk := peak.Load()
			if cur <= pk || peak.CompareAndSwap(pk, cur) {
				break
			}
		}
		starts[p] = started.Add(1)
		ran[p].Add(1)
		if p == 0 {
			time.Sleep(20 * time.Millisecond) // skew: one giant partition
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrency %d exceeds GOMAXPROCS=2", got)
	}
	for p := range ran {
		if ran[p].Load() != 1 {
			t.Errorf("partition %d ran %d times", p, ran[p].Load())
		}
	}
	// Work-conserving index order: partition p's start sequence can trail
	// its index by at most the pool size (workers claim indices from a
	// shared counter), so sequence numbers grow with partition index.
	for p := 1; p < nparts; p++ {
		if starts[p] < starts[p-1]-2 {
			t.Errorf("partition %d started at seq %d, before partition %d at %d", p, starts[p], p-1, starts[p-1])
		}
	}
}

// TestForEachPartSerialOnOneProc: a 64-partition layout on a 1-proc box
// runs serially in the calling goroutine, still completing every partition.
func TestForEachPartSerialOnOneProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var order []int
	err := forEachPart(64, func(p int) error {
		order = append(order, p) // no locking needed: serial path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 64 {
		t.Fatalf("ran %d partitions", len(order))
	}
	for p, got := range order {
		if got != p {
			t.Fatalf("serial path ran partition %d at position %d", got, p)
		}
	}
}

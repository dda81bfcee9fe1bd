package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/faults/leakcheck"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// Late-projection fixtures: a fact table whose pushed-down filter keeps
// whole runs, drops whole runs, and keeps every other row of a third band,
// so scan windows come out fully filtered, fully kept, and partly kept; and
// a projection that drops the filter column and reorders the rest.
const (
	lateProjFactRows = 400
	lateProjBand     = 40 // consecutive ids per band; each partition sees ~band/nodes of them
	lateProjNodes    = 4
	lateProjPageRows = 16
)

var lateProjFactSchema = types.NewSchema(
	types.Field{Name: "id", Kind: types.KindInt},
	types.Field{Name: "fk", Kind: types.KindInt},
	types.Field{Name: "pay", Kind: types.KindInt},
	types.Field{Name: "tag", Kind: types.KindString},
)

// lateProjFactTuples: band 0 fails the filter, band 1 passes, band 2 passes
// on even ids. fk spans 0..299 while dim holds ids 0..239, so some probe
// rows find no match; tag mixes string lengths and NULLs.
func lateProjFactTuples(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		pay := int64(0)
		switch band := (i / lateProjBand) % 3; {
		case band == 1, band == 2 && i%2 == 0:
			pay = 1000
		}
		tag := types.Str(strings.Repeat("x", i%6))
		if i%13 == 0 {
			tag = types.Null()
		}
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i * 7 % 300)), types.Int(pay), tag}
	}
	return rows
}

// lateProjScanWant is the filtered, projected fact scan computed straight
// from the fixture, rendered and sorted.
func lateProjScanWant() []string {
	var out []string
	for _, r := range lateProjFactTuples(lateProjFactRows) {
		if r[2].I() >= 500 {
			out = append(out, types.Tuple{r[3], r[1], r[0]}.String())
		}
	}
	sort.Strings(out)
	return out
}

func lateProjFilter() expr.Expr {
	return &expr.Compare{Op: expr.CmpGe,
		L: &expr.Column{Qualifier: "f", Name: "pay"}, R: &expr.Literal{Val: types.Int(500)}}
}

var lateProjCols = []string{"tag", "fk", "id"}

// loadLateProjFact registers the fact table on ctx: resident, or converted
// to page files (pages smaller than the larger chunk capacities, so page
// and chunk boundaries interleave) and reopened through a small page cache.
func loadLateProjFact(t *testing.T, ctx *Context, paged bool) {
	t.Helper()
	rows := lateProjFactTuples(lateProjFactRows)
	if !paged {
		registerTyped(t, ctx, "fact", []string{"id"}, lateProjFactSchema, rows)
		return
	}
	scratch := testCtx(t, ctx.Cluster.Nodes())
	ds := registerTyped(t, scratch, "fact", []string{"id"}, lateProjFactSchema, rows)
	dir := t.TempDir()
	if err := storage.WritePaged(dir, ds, scratch.Catalog.Stats().Get("fact"), lateProjPageRows); err != nil {
		t.Fatal(err)
	}
	pds, pst, err := storage.OpenPaged(dir, "fact", storage.NewPageCache(1<<14), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Catalog.Register(pds, pst); err != nil {
		t.Fatal(err)
	}
}

// lateProjWindowKinds classifies every resident scan window of the fact
// table at chunk capacity cc as fully filtered, fully kept, or partly kept.
func lateProjWindowKinds(t *testing.T, cc int) (out, kept, partial int) {
	t.Helper()
	ctx := testCtx(t, lateProjNodes)
	ds := registerTyped(t, ctx, "fact", []string{"id"}, lateProjFactSchema, lateProjFactTuples(lateProjFactRows))
	for _, part := range ds.Parts {
		for lo := 0; lo < len(part); lo += cc {
			hi := min(lo+cc, len(part))
			pass := 0
			for _, r := range part[lo:hi] {
				if r[2].I() >= 500 {
					pass++
				}
			}
			switch pass {
			case 0:
				out++
			case hi - lo:
				kept++
			default:
				partial++
			}
		}
	}
	return out, kept, partial
}

// TestLateProjectionMatrix feeds a filtering, projecting scan — resident
// and paged, at chunk capacities 1, 7, and 1024 — into every consumer of
// projected chunks, and requires rows, row order, schema, partitioning, and
// every metered counter identical to the materializing Scan plus the
// relation-in join, whose rows must equal a nested-loop reference. The
// scan-fed side exercises the probe's through-projection key compare
// and output gather (broadcast and local hash probes), the scatter route
// and collect place gathers, the replicate flatten (INLJ outer),
// materializeSource, the spill join's chunkSeq gather under an 8 KiB/node
// budget, and RunToSink.
func TestLateProjectionMatrix(t *testing.T) {
	leakcheck.Check(t)
	chunkCaps := []int{1, 7, 1024}
	var out, kept, partial int
	for _, cc := range chunkCaps {
		o, k, p := lateProjWindowKinds(t, cc)
		out, kept, partial = out+o, kept+k, partial+p
	}
	if out == 0 || kept == 0 || partial == 0 {
		t.Fatalf("fixture misses a window kind: %d filtered out, %d kept, %d partial", out, kept, partial)
	}

	factSrc := func(ctx *Context) (Source, error) {
		ds, _ := ctx.Catalog.Get("fact")
		return ScanSource(ctx, ds, "f", lateProjFilter(), lateProjCols)
	}
	factRel := func(ctx *Context) (*Relation, error) {
		return ScanByName(ctx, "fact", "f", lateProjFilter(), lateProjCols)
	}
	// The dim build scan filters and projects too (attr first, then id), so
	// the build-side exchange and in-place materialize see views as well.
	dimFilter := func() expr.Expr {
		return &expr.Compare{Op: expr.CmpNe,
			L: &expr.Column{Qualifier: "d", Name: "id"}, R: &expr.Literal{Val: types.Int(5)}}
	}
	dimCols := []string{"attr", "id"}
	streamJoin := func(join func(ctx *Context, f Source, mk SinkFactory) error) func(ctx *Context) (*Relation, error) {
		return func(ctx *Context) (*Relation, error) {
			return collectRelation(ctx.Cluster.Nodes(), func(mk SinkFactory) error {
				f, err := factSrc(ctx)
				if err != nil {
					return err
				}
				return join(ctx, f, mk)
			})
		}
	}
	dim := func(ctx *Context) (*Relation, error) { return ScanByName(ctx, "dim", "d", nil, nil) }
	big := func(ctx *Context) (*Relation, error) { return ScanByName(ctx, "big", "b", nil, nil) }

	type matrixCase struct {
		name  string
		spill bool // real spill under an 8 KiB/node budget
		// noSpillModel marks consumers without a modeled spill (INLJ meters
		// broadcast bytes instead; RunToSink meters the scan only).
		noSpillModel bool
		rel          relArm
		stream       func(ctx *Context) (*Relation, error)
	}
	cases := []matrixCase{
		{name: "broadcast-build-right",
			rel: relJoinArm(BroadcastJoin, factRel, dim, []string{"f.fk"}, []string{"d.id"}, false),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				d, err := dim(ctx)
				if err != nil {
					return err
				}
				return BroadcastJoinStream(ctx, d, f, []string{"d.id"}, []string{"f.fk"}, false, mk)
			})},
		{name: "broadcast-build-left",
			rel: relJoinArm(BroadcastJoin, dim, factRel, []string{"d.id"}, []string{"f.fk"}, true),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				d, err := dim(ctx)
				if err != nil {
					return err
				}
				return BroadcastJoinStream(ctx, d, f, []string{"d.id"}, []string{"f.fk"}, true, mk)
			})},
		{name: "hash-exchange",
			rel: relJoinArm(HashJoin, factRel, dim, []string{"f.fk"}, []string{"d.id"}, false),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				d, err := dim(ctx)
				if err != nil {
					return err
				}
				return HashJoinStream(ctx, d, f, []string{"d.id"}, []string{"f.fk"}, false, mk)
			})},
		{name: "hash-local",
			// The projection keeps the partitioning column, so a probe on
			// f.id skips the exchange.
			rel: relJoinArm(HashJoin, factRel, dim, []string{"f.id"}, []string{"d.id"}, false),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				d, err := dim(ctx)
				if err != nil {
					return err
				}
				return HashJoinStream(ctx, d, f, []string{"d.id"}, []string{"f.id"}, false, mk)
			})},
		{name: "hash-sources-exchange",
			// Build scan keyed off its partitioning: collectExchanged places
			// gathered view rows.
			rel: relJoinArm(HashJoin, factRel, scanRel("dim", "d", dimFilter(), dimCols), []string{"f.fk"}, []string{"d.attr"}, false),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				ds, _ := ctx.Catalog.Get("dim")
				d, err := ScanSource(ctx, ds, "d", dimFilter(), dimCols)
				if err != nil {
					return err
				}
				return HashJoinStreamSources(ctx, d, f, []string{"d.attr"}, []string{"f.fk"}, false, mk)
			})},
		{name: "hash-sources-placed",
			// Build scan already partitioned on its key: materializeSource
			// gathers view rows in place; the build forms the left half.
			rel: relJoinArm(HashJoin, scanRel("dim", "d", dimFilter(), dimCols), factRel, []string{"d.id"}, []string{"f.id"}, true),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				ds, _ := ctx.Catalog.Get("dim")
				d, err := ScanSource(ctx, ds, "d", dimFilter(), dimCols)
				if err != nil {
					return err
				}
				return HashJoinStreamSources(ctx, d, f, []string{"d.id"}, []string{"f.id"}, true, mk)
			})},
		{name: "indexnl-outer", noSpillModel: true,
			rel: relIndexNLArm(factRel, "dim", "d", []string{"f.fk"}, []string{"id"}),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				ds, _ := ctx.Catalog.Get("dim")
				return IndexNLJoinStream(ctx, f, ds, "d", []string{"f.fk"}, []string{"id"}, nil, mk)
			})},
		{name: "spill-exchange", spill: true,
			rel: relJoinArm(HashJoin, factRel, big, []string{"f.fk"}, []string{"b.id"}, false),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				b, err := big(ctx)
				if err != nil {
					return err
				}
				return HashJoinStream(ctx, b, f, []string{"b.id"}, []string{"f.fk"}, false, mk)
			})},
		{name: "spill-local", spill: true,
			rel: relJoinArm(HashJoin, big, factRel, []string{"b.id"}, []string{"f.id"}, true),
			stream: streamJoin(func(ctx *Context, f Source, mk SinkFactory) error {
				b, err := big(ctx)
				if err != nil {
					return err
				}
				return HashJoinStream(ctx, b, f, []string{"b.id"}, []string{"f.id"}, true, mk)
			})},
		{name: "run-to-sink", noSpillModel: true,
			rel: func(ctx *Context) (*Relation, []string, error) {
				f, err := factRel(ctx)
				return f, lateProjScanWant(), err
			},
			stream: func(ctx *Context) (*Relation, error) {
				f, err := factSrc(ctx)
				if err != nil {
					return nil, err
				}
				sink := newRelationSink(f.Parts())
				if err := RunToSink(ctx, f, sink); err != nil {
					return nil, err
				}
				return &Relation{Schema: f.Schema(), Parts: sink.parts, PartCols: f.PartCols()}, nil
			}},
	}

	for _, paged := range []bool{false, true} {
		mode := "resident"
		if paged {
			mode = "paged"
		}
		for _, cc := range chunkCaps {
			t.Run(fmt.Sprintf("%s/chunkRows=%d", mode, cc), func(t *testing.T) {
				withChunkCap(t, cc)
				for _, tc := range cases {
					t.Run(tc.name, func(t *testing.T) {
						var spillDirs []*storage.SpillManager
						load := func(ctx *Context) {
							loadLateProjFact(t, ctx, paged)
							dimRows := make([][]int64, 240)
							for i := range dimRows {
								dimRows[i] = []int64{int64(i), int64(i * 3)}
							}
							dds := register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, dimRows)
							if _, err := storage.BuildIndex(dds, "id"); err != nil {
								t.Fatal(err)
							}
							if !tc.spill {
								// A simulated budget below every build side:
								// the modeled spill charges probe bytes, so
								// the per-row sizes of projected rows show up
								// in the counters.
								ctx.Cluster.SetMemoryPerNodeBytes(128)
								return
							}
							// ~20 KB of build rows per node against an 8 KiB
							// budget: the DHHJ evicts sub-partitions and defers
							// probe rows to run files.
							register(t, ctx, "big", []string{"id"}, []string{"id", "attr", "pay"}, seqTable(3000, 7))
							ctx.Cluster.SetMemoryPerNodeBytes(8 << 10)
							ctx.Spill = storage.NewSpillManager(t.TempDir(), "lateproj_")
							ctx.Grant = ctx.Cluster.Governor().Grant()
							spillDirs = append(spillDirs, ctx.Spill)
							t.Cleanup(ctx.Grant.Close)
						}
						rows, snaps := runBothModes(t, lateProjNodes, load, tc.rel, tc.stream)
						if rows == 0 {
							t.Fatal("no output rows; case is vacuous")
						}
						if !tc.noSpillModel && snaps[0].SpillBytes == 0 {
							t.Fatal("budget did not force (modeled or real) spilling; case is vacuous")
						}
						if tc.spill {
							for _, sm := range spillDirs {
								if err := sm.Sweep(); err != nil {
									t.Fatal(err)
								}
							}
						}
					})
				}
			})
		}
	}
}

// discardSink keeps nothing.
type discardSink struct{}

func (discardSink) Emit(int, []types.Tuple) error { return nil }

// TestLateProjectionAllocsFlat guards the late projection: a broadcast join
// whose probe is a filtering, projecting scan and whose build side matches
// nothing must allocate the same per run at 10k and at 100k probe rows.
// Copying every filter survivor (the scan-side projection this replaced)
// grows bytes per op linearly with the probe.
func TestLateProjectionAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two testing.Benchmark loops")
	}
	bytesPerOp := func(n int) int64 {
		ctx := testCtx(t, 2)
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(n, 97))
		register(t, ctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{-1, 0}, {-2, 0}, {-3, 0}})
		fds, _ := ctx.Catalog.Get("fact")
		build, err := ScanByName(ctx, "dim", "d", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Keeps ~60% of rows, projected to the key and one payload column.
		filter := &expr.Compare{Op: expr.CmpGe,
			L: &expr.Column{Qualifier: "f", Name: "fk"}, R: &expr.Literal{Val: types.Int(40)}}
		mk := func(*types.Schema, []int) (Sink, error) { return discardSink{}, nil }
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := ScanSource(ctx, fds, "f", filter, []string{"pay", "fk"})
				if err == nil {
					err = BroadcastJoinStream(ctx, build, src, []string{"d.id"}, []string{"f.fk"}, false, mk)
				}
				if err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return res.AllocedBytesPerOp()
	}
	small, large := bytesPerOp(10_000), bytesPerOp(100_000)
	t.Logf("bytes/op: %d at 10k probe rows, %d at 100k", small, large)
	if diff := float64(large - small); diff > 0.10*float64(small) || -diff > 0.10*float64(small) {
		t.Errorf("bytes/op moved from %d (10k rows) to %d (100k rows), more than 10%%: per-row copies are back on the probe path", small, large)
	}
}

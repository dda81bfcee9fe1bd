package engine

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// pagedCopy converts ctx's resident dataset name into a paged twin on a
// second context, backed by page files of rowsPerPage under a cache of
// cacheBytes.
func pagedCopy(t *testing.T, ctx *Context, name string, rowsPerPage int, cacheBytes int64) *Context {
	t.Helper()
	ds, ok := ctx.Catalog.Get(name)
	if !ok {
		t.Fatalf("dataset %q missing", name)
	}
	dir := t.TempDir()
	if err := storage.WritePaged(dir, ds, ctx.Catalog.Stats().Get(name), rowsPerPage); err != nil {
		t.Fatal(err)
	}
	var cache *storage.PageCache
	if cacheBytes > 0 {
		cache = storage.NewPageCache(cacheBytes)
	}
	pds, pst, err := storage.OpenPaged(dir, name, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	pctx := testCtx(t, ctx.Cluster.Nodes())
	pctx.ChunkRows = ctx.ChunkRows
	pctx.PageStats = &storage.PageScanStats{}
	if err := pctx.Catalog.Register(pds, pst); err != nil {
		t.Fatal(err)
	}
	return pctx
}

func sortedRelRows(rel *Relation) []string {
	var out []string
	for _, part := range rel.Parts {
		for _, r := range part {
			out = append(out, fmt.Sprint(r))
		}
	}
	sort.Strings(out)
	return out
}

// TestPagedScanChunkStraddlesPages sweeps chunk capacity against page
// granularity — chunks smaller than a page, equal, larger, and mutually
// prime — over plain, filtered, and projected scans. Paged rows must match
// the resident scan exactly in every combination: page boundaries are a
// storage detail the chunk spine never observes.
func TestPagedScanChunkStraddlesPages(t *testing.T) {
	rows := seqTable(530, 10) // not a multiple of any page size below
	filter := &expr.Compare{
		Op: expr.CmpLt,
		L:  &expr.Column{Qualifier: "a", Name: "grp"},
		R:  &expr.Literal{Val: types.Int(4)},
	}
	for _, chunkRows := range []int{1, 3, 64, 4096} {
		for _, pageRows := range []int{1, 7, 64, 256} {
			t.Run(fmt.Sprintf("chunk%d/page%d", chunkRows, pageRows), func(t *testing.T) {
				ctx := testCtx(t, 3)
				ctx.ChunkRows = chunkRows
				register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, rows)
				pctx := pagedCopy(t, ctx, "t", pageRows, 1<<14)

				for _, tc := range []struct {
					name    string
					filter  expr.Expr
					project []string
				}{
					{"full", nil, nil},
					{"filtered", filter, nil},
					{"projected", nil, []string{"pay", "id"}},
					{"filtered-projected", filter, []string{"pay"}},
				} {
					want, err := ScanByName(ctx, "t", "a", tc.filter, tc.project)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ScanByName(pctx, "t", "a", tc.filter, tc.project)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sortedRelRows(got), sortedRelRows(want)) {
						t.Errorf("%s: paged rows diverged from resident (chunk %d, page %d)",
							tc.name, chunkRows, pageRows)
					}
					if !reflect.DeepEqual(got.Schema, want.Schema) {
						t.Errorf("%s: schema diverged", tc.name)
					}
				}
			})
		}
	}
}

// TestPagedScanPrunesWholePages: a selective range filter over the
// partition-ordered id column must skip pages whose zone maps exclude it,
// without losing a single passing row.
func TestPagedScanPrunesWholePages(t *testing.T) {
	ctx := testCtx(t, 1) // one partition keeps ids contiguous per page
	ctx.ChunkRows = 32
	register(t, ctx, "t", []string{"id"}, []string{"id", "grp", "pay"}, seqTable(1000, 10))
	pctx := pagedCopy(t, ctx, "t", 50, 1<<14)
	filter := &expr.Between{
		X:  &expr.Column{Qualifier: "a", Name: "id"},
		Lo: &expr.Literal{Val: types.Int(100)},
		Hi: &expr.Literal{Val: types.Int(149)},
	}
	rel, err := ScanByName(pctx, "t", "a", filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.RowCount() != 50 {
		t.Errorf("rows = %d, want 50", rel.RowCount())
	}
	st := pctx.PageStats
	if st.PagesTotal.Load() != 20 {
		t.Errorf("PagesTotal = %d, want 20", st.PagesTotal.Load())
	}
	// Ids 100-149 span exactly one 50-row page; every other page must prune.
	if st.PagesPruned.Load() != 19 {
		t.Errorf("PagesPruned = %d, want 19", st.PagesPruned.Load())
	}
	if st.PagesRead.Load() != 1 {
		t.Errorf("PagesRead = %d, want 1", st.PagesRead.Load())
	}
}

// TestPagedScanAllocsFlat is the paged twin of TestLateProjectionAllocsFlat:
// a paged scan's allocations must not grow with the rows or pages it reads.
// The page cache's budget is below one page, so every page is a miss the
// cache can never hold. A filtering, projecting probe through a broadcast
// join that matches nothing must allocate the same bytes per run at 10k and
// at 100k rows (row slabs and the read buffer are reused). A pass-through
// scan keeps every row, so its bytes grow with the rows; its allocation
// count must grow with the pages, not with the rows.
func TestPagedScanAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four testing.Benchmark loops")
	}
	const cacheBytes = 512 // below one page of 3 int columns
	type run struct{ bytes, allocs int64 }
	measure := func(n int, passThrough bool) run {
		ctx := testCtx(t, 2)
		register(t, ctx, "fact", []string{"id"}, []string{"id", "fk", "pay"}, seqTable(n, 97))
		pctx := pagedCopy(t, ctx, "fact", 0, cacheBytes)
		register(t, pctx, "dim", []string{"id"}, []string{"id", "attr"}, [][]int64{{-1, 0}, {-2, 0}, {-3, 0}})
		fds, _ := pctx.Catalog.Get("fact")
		if pg := fds.Paged(); int64(pg.Page(0, 0).Len) <= cacheBytes {
			t.Fatalf("page of %d bytes fits the %d-byte cache; the test needs every page uncacheable", pg.Page(0, 0).Len, cacheBytes)
		}
		build, err := ScanByName(pctx, "dim", "d", nil, nil)
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
				var err error
				if passThrough {
					var rel *Relation
					rel, err = Scan(pctx, fds, "f", nil, nil)
					if err == nil && rel.RowCount() != int64(n) {
						err = fmt.Errorf("pass-through scan kept %d of %d rows", rel.RowCount(), n)
					}
				} else {
					var src Source
					src, err = ScanSource(pctx, fds, "f", filter, []string{"pay", "fk"})
					if err == nil {
						err = BroadcastJoinStream(pctx, build, src, []string{"d.id"}, []string{"f.fk"}, false, mk)
					}
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
		return run{res.AllocedBytesPerOp(), res.AllocsPerOp()}
	}

	small, large := measure(10_000, false), measure(100_000, false)
	t.Logf("probe bytes/op: %d at 10k rows, %d at 100k", small.bytes, large.bytes)
	if diff := float64(large.bytes - small.bytes); diff > 0.10*float64(small.bytes) || -diff > 0.10*float64(small.bytes) {
		t.Errorf("probe bytes/op moved from %d (10k rows) to %d (100k rows), more than 10%%: the paged scan allocates per row or per page again", small.bytes, large.bytes)
	}

	small, large = measure(10_000, true), measure(100_000, true)
	perRow := float64(large.allocs-small.allocs) / 90_000
	t.Logf("pass-through allocs/op: %d at 10k rows, %d at 100k (%.4f per added row)", small.allocs, large.allocs, perRow)
	if perRow > 0.01 {
		t.Errorf("pass-through allocs/op grew by %.4f per added row (%d -> %d): kept rows are allocated one by one again", perRow, small.allocs, large.allocs)
	}
}

// TestPagedScanCacheOwnsItsBuffers interleaves two scans of one page file
// under a page cache that admits its small pages and never its large ones.
// Large pages are read into each cursor's reused buffer; small pages go
// through the cache, whose buffers are shared between the scans. Both scans
// must return the resident rows, and afterwards every cached payload must
// still equal the verified page on disk: a buffer handed to the cache must
// never be written again by a later read.
func TestPagedScanCacheOwnsItsBuffers(t *testing.T) {
	const (
		rows     = 400
		pageRows = 16
		budget   = 1500 // a few small pages, no large one
	)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt},
		types.Field{Name: "grp", Kind: types.KindInt},
		types.Field{Name: "tag", Kind: types.KindString},
	)
	tuples := make([]types.Tuple, rows)
	for i := range tuples {
		// Odd pages carry long strings, even pages one-byte ones.
		n := 1
		if (i/pageRows)%2 == 1 {
			n = 150 + i%5
		}
		tuples[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 7)), types.Str(strings.Repeat(string(rune('a'+i%26)), n))}
	}
	ctx := testCtx(t, 1) // one partition keeps the page order the row order
	ctx.ChunkRows = 5    // chunks straddle pages, so the scans interleave mid-page
	registerTyped(t, ctx, "t", []string{"id"}, schema, tuples)
	pctx := pagedCopy(t, ctx, "t", pageRows, budget)
	ds, _ := pctx.Catalog.Get("t")
	pg := ds.Paged()
	var admitted, refused int
	for i := 0; i < pg.Pages(0); i++ {
		if int64(pg.Page(0, i).Len) > budget {
			refused++
		} else {
			admitted++
		}
	}
	if admitted < 2 || refused < 2 {
		t.Fatalf("the cache must admit some pages and refuse others: %d admissible, %d too large", admitted, refused)
	}

	filter := &expr.Compare{Op: expr.CmpLt,
		L: &expr.Column{Qualifier: "a", Name: "grp"}, R: &expr.Literal{Val: types.Int(5)}}
	scans := []struct {
		name    string
		filter  expr.Expr
		project []string
	}{
		{"projected", filter, []string{"tag", "id"}}, // a view: its slab is reused
		{"pass-through", nil, nil},                   // rows kept by header
	}
	// Two rounds: the second pair of scans hits the pages the first cached.
	for round := 0; round < 2; round++ {
		curs := make([]Cursor, len(scans))
		got := make([][]types.Tuple, len(scans))
		arenas := make([]types.Arena, len(scans))
		for k, sc := range scans {
			src, err := ScanSource(pctx, ds, "a", sc.filter, sc.project)
			if err != nil {
				t.Fatal(err)
			}
			if curs[k], err = src.Open(0); err != nil {
				t.Fatal(err)
			}
		}
		for live := len(curs); live > 0; {
			live = 0
			for k, cur := range curs {
				if cur == nil {
					continue
				}
				c, err := cur.Next()
				if err == io.EOF {
					curs[k] = nil
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				got[k] = c.appendLive(got[k], &arenas[k])
				live++
			}
		}
		for k, sc := range scans {
			want, err := ScanByName(ctx, "t", "a", sc.filter, sc.project)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sortedRelRows(&Relation{Parts: [][]types.Tuple{got[k]}}), sortedRelRows(want)) {
				t.Errorf("round %d, %s scan: paged rows diverged from resident", round, sc.name)
			}
		}
	}
	if st := pctx.PageStats; st.CacheHits.Load() == 0 {
		t.Fatalf("no cache hits (%d misses): the scans never shared a cached buffer", st.CacheMisses.Load())
	}

	var cached int
	for i := 0; i < pg.Pages(0); i++ {
		buf := pg.Cache().Get(pg.File(), 0, i)
		if buf == nil {
			continue
		}
		cached++
		disk, err := pg.File().ReadPage(nil, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != int(pg.Page(0, i).Len) || !bytes.Equal(buf, disk) {
			t.Errorf("cached payload of page %d no longer matches its verified page on disk (checksum %08x, want %08x)",
				i, types.CRC32C(buf), types.CRC32C(disk))
		}
	}
	if cached == 0 {
		t.Fatal("no page left cached to check")
	}
}

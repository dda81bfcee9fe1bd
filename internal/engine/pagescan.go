package engine

import (
	"io"

	"dynopt/internal/expr"
	"dynopt/internal/storage"
	"dynopt/internal/types"
)

// The paged scan: the streaming cursor over a disk-native dataset's page
// file, decoding pages straight into the chunk spine. Three storage-level
// optimizations happen here before any row exists:
//
//   - Zone-map pruning: the pushed-down filter's extracted column ranges
//     (expr.ZoneRanges) are checked against each page's directory min/max
//     before the page is read — a page whose zone map proves every row fails
//     an ANDed conjunct is skipped without a read or a decode.
//   - Projection pushdown: with a projection, only the projected columns and
//     the filter's columns are decoded; every other column's bytes are
//     skipped inside the page payload.
//   - Columnar decode: typed page columns decode into the same ColVec form
//     the vectorized predicate kernels consume, so a paged chunk's column
//     source needs no row-window gather.
//
// Rows are then filled column by column from the decoded page, needed
// columns only, into a row slab instead of one allocation per row. A view
// (projecting scan) reuses one slab for every page, since consumers that
// keep a view row gather it; rows that leave by header (pass-through and
// filter-only scans) get a fresh slab per page. Pages the cache can never
// hold are read into a buffer the cursor reuses, so a view scan's
// allocations do not grow with the rows or pages it reads.
//
// Scan metering is identical to resident mode — the full partition is
// charged when the cursor opens, pruned or not (I/O actually saved is
// observed separately through Context.PageStats, which feeds the
// optimizer's access-path selection rather than the cost counters).

// pageNeedCols resolves which columns a paged scan must decode: the
// projected columns plus every column the filter reads. nil means all (no
// projection — the full row width flows downstream).
func pageNeedCols(sp *scanPrep, filter expr.Expr) []bool {
	if sp.projIdx == nil {
		return nil
	}
	need := make([]bool, sp.qualified.Len())
	for _, i := range sp.projIdx {
		need[i] = true
	}
	if filter != nil {
		for _, c := range expr.ColumnsOf(filter) {
			name := c.Name
			if c.Qualifier != "" {
				name = c.Qualifier + "." + c.Name
			}
			if i, ok := sp.qualified.Index(name); ok {
				need[i] = true
			}
		}
	}
	return need
}

// pagePruned reports whether page stats prove every row fails one of the
// filter's extracted ranges. A conjunct comparing a column constrains
// passing rows to [Lo, Hi] under Value.Compare; a page whose column min/max
// lies wholly outside — or that holds only NULLs, which fail any comparison
// — cannot contribute a row.
func pagePruned(zones []expr.ColRange, pi *storage.PageInfo) bool {
	for i := range zones {
		z := &zones[i]
		cs := &pi.Cols[z.Col]
		if !cs.HasMinMax {
			// Every value in this page's column is NULL: the comparison
			// conjunct evaluates false for all of them.
			return true
		}
		if z.HasLo && cs.Max.Compare(z.Lo) < 0 {
			return true
		}
		if z.HasHi && cs.Min.Compare(z.Hi) > 0 {
			return true
		}
	}
	return false
}

// pagedCursor streams one partition of a paged dataset: prune → read (through
// the shared page cache) → decode needed columns → filter → emit, page by
// page, in windows of at most ctx.chunkRows() rows so chunk capacity and
// page boundaries stay independent.
type pagedCursor struct {
	ctx  *Context
	prep *scanPrep
	pg   *storage.PagedData
	part int
	page int // next page index
	pd   types.PageData
	win  []types.Tuple // rows of the current page
	slab []types.Tuple // a view scan's rows, refilled by every page
	lo   int           // next unemitted row within win
	buf  []byte        // read buffer for pages the cache can never hold
	sel  []int32
	c    Chunk

	// Window column source: per-column slices of the decoded page vectors,
	// cut to the emitted window. Rebuilt lazily per window like a ColCache.
	vecs     []types.ColVec
	vecGen   []uint64
	gen      uint64
	wlo, whi int
}

func newPagedCursor(ctx *Context, ds *storage.Dataset, prep *scanPrep, p int) *pagedCursor {
	return &pagedCursor{
		ctx:    ctx,
		prep:   prep,
		pg:     ds.Paged(),
		part:   p,
		vecs:   make([]types.ColVec, prep.qualified.Len()),
		vecGen: make([]uint64, prep.qualified.Len()),
	}
}

// Col implements types.ColSource over the current emitted window: typed page
// vectors are sliced (no copies), fallback and skipped columns surface as
// Mixed so consumers use the row form.
func (c *pagedCursor) Col(i int) *types.ColVec {
	v := &c.vecs[i]
	if c.vecGen[i] == c.gen {
		return v
	}
	c.vecGen[i] = c.gen
	pc := &c.pd.Cols[i]
	if pc.Skipped || pc.Fallback {
		*v = types.ColVec{Kind: c.prep.qualified.Fields[i].Kind, Mixed: true}
		return v
	}
	src := &pc.Vec
	*v = types.ColVec{Kind: src.Kind, Null: src.Null[c.wlo:c.whi]}
	switch src.Kind {
	case types.KindInt:
		v.Ints = src.Ints[c.wlo:c.whi]
	case types.KindFloat:
		v.Floats = src.Floats[c.wlo:c.whi]
	case types.KindString:
		v.Strs = src.Strs[c.wlo:c.whi]
	default:
		v.Mixed = true
	}
	return v
}

// loadPage advances to the next unpruned page and fills its row window.
// Returns io.EOF past the last page.
func (c *pagedCursor) loadPage() error {
	for {
		if c.page >= c.pg.Pages(c.part) {
			return io.EOF
		}
		i := c.page
		c.page++
		if c.ctx.PageStats != nil {
			c.ctx.PageStats.PagesTotal.Add(1)
		}
		if len(c.prep.zones) > 0 && pagePruned(c.prep.zones, c.pg.Page(c.part, i)) {
			if c.ctx.PageStats != nil {
				c.ctx.PageStats.PagesPruned.Add(1)
			}
			continue
		}
		buf, err := c.pg.ReadPageInto(&c.buf, c.part, i, c.ctx.PageStats)
		if err != nil {
			return err
		}
		if err := c.pd.DecodePage(buf, c.pg.File().Schema(), c.prep.need); err != nil {
			return err
		}
		// A view's chunk is valid until the next Next, and every consumer
		// that keeps one of its rows gathers it, so its slab is refilled
		// from page to page. Other scans hand rows out to be kept by
		// header, so each page gets a fresh slab. Rows stay full width:
		// columns outside prep.need (a view's only) are never written and
		// stay zero, i.e. NULL, as the need mask is fixed per cursor and
		// Proj and the filter read decoded columns only.
		width := c.prep.qualified.Len()
		if c.prep.projIdx == nil {
			c.win = types.NewRows(c.pd.NRows, width)
		} else {
			if len(c.slab) < c.pd.NRows {
				c.slab = types.NewRows(c.pd.NRows, width)
			}
			c.win = c.slab[:c.pd.NRows]
		}
		c.pd.FillRows(c.win)
		c.lo = 0
		return nil
	}
}

// filterWindow evaluates the fused predicate over window rows [lo, hi) of
// the current page, returning the live selection (window-relative,
// ascending, aliasing the reused buffer).
func (c *pagedCursor) filterWindow(win []types.Tuple) ([]int32, error) {
	if cap(c.sel) < len(win) {
		c.sel = make([]int32, len(win))
	}
	sel := c.sel[:len(win)]
	if c.prep.vpred != nil {
		//dynopt:hotpath
		for i := range sel {
			sel[i] = int32(i)
		}
		return c.prep.vpred(win, c, sel)
	}
	sel = sel[:0]
	//dynopt:hotpath
	for i, t := range win {
		v, err := c.prep.pred(t)
		if err != nil {
			return nil, err
		}
		if v.IsTrue() {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

func (c *pagedCursor) Next() (*Chunk, error) {
	for {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
		if c.lo >= len(c.win) {
			if err := c.loadPage(); err != nil {
				return nil, err
			}
			continue
		}
		hi := c.lo + c.ctx.chunkRows()
		if hi > len(c.win) {
			hi = len(c.win)
		}
		c.wlo, c.whi = c.lo, hi
		c.gen++
		win := c.win[c.lo:hi]
		c.lo = hi
		if c.prep.passThrough() {
			c.c = Chunk{Rows: win}
			return &c.c, nil
		}
		var sel []int32
		if c.prep.pred != nil {
			var err error
			sel, err = c.filterWindow(win)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				continue
			}
		}
		// As in scanCursor: the page window goes out with its selection,
		// and a projection as a view over it (only projected and filter
		// columns were decoded; Proj never reaches the rest).
		if len(sel) == len(win) {
			sel = nil
		}
		c.c = Chunk{Rows: win, Sel: sel, Proj: c.prep.projIdx}
		return &c.c, nil
	}
}

// pagedScanInto materializes a prepared scan over a paged dataset as a
// Relation: each partition drains its paged cursor (pruning, pushdown, and
// cache behavior identical to the streaming path) and collects the emitted
// rows.
func pagedScanInto(ctx *Context, ds *storage.Dataset, sp *scanPrep) (*Relation, error) {
	out := &Relation{Schema: sp.outSchema, Parts: make([][]types.Tuple, len(ds.Parts))}
	err := forEachPart(len(ds.Parts), func(p int) error {
		meterScanPart(ctx, ds, p)
		cur := newPagedCursor(ctx, ds, sp, p)
		var rows []types.Tuple
		var arena types.Arena
		//dynopt:cancel-ok pagedCursor.Next checks ctx.Err() on every chunk pull
		for {
			ch, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			// Unprojected rows come from a fresh slab per page and are kept
			// by header; a view's slab is reused by the next page, so its
			// projected columns are gathered into the arena.
			rows = ch.appendLive(rows, &arena)
		}
		out.Parts[p] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sp.passThrough() {
		// The relation's rows are value-identical to the dataset's; seed its
		// size cache from the directory-seeded dataset sizes so downstream
		// metering never re-walks them (same figures as resident mode).
		pb := make([]int64, len(ds.Parts))
		for p := range pb {
			pb[p] = ds.PartBytes(p)
		}
		out.seedSizes(pb, ds.ByteSize())
	}
	out.PartCols = sp.partCols
	return out, nil
}

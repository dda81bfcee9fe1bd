package engine

import (
	"io"

	"dynopt/internal/types"
)

// This file defines the chunked streaming contracts of the stage pipeline.
// A stage runs scan→filter→project→exchange→probe→sink as one pull-driven
// pass over fixed-capacity tuple batches, so the probe side of a join is
// never materialized as a whole relation and the Sink never re-walks the
// join output. The build side of a hash join — and every materialized
// intermediate between re-optimization points — still lands in a Relation
// or Dataset: the paper's materialize-between-stages contract is the stage
// boundary, and streaming applies strictly within it.

// defaultChunkRows is the default row capacity of one pipeline chunk. Large
// enough to amortize per-chunk costs (channel handoff in the exchange,
// prehash calls) over a thousand rows, small enough that a chunk and its
// prehash/size sidecars stay cache-resident through the scatter→probe→sink
// pass. Config.ChunkRows overrides it per DB, threaded here through
// Context.ChunkRows; tests shrink it to exercise chunk-boundary edges.
const defaultChunkRows = 1024

// chunkRows returns this execution's chunk capacity.
func (c *Context) chunkRows() int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	return defaultChunkRows
}

// Chunk is one batch of tuples flowing through a stage pipeline, with
// optional sidecars the producer computed anyway: a selection vector, a
// late projection, join-key prehashes (exchange scatter), and per-row
// encoded byte sizes (shuffle metering). A chunk
// handed out by a Cursor is valid only until the next Next call.
//
// Selection: when Sel is non-nil it lists the live row indexes into Rows,
// ascending — the fused scan filter marks rows instead of copying tuple
// headers. Hashes and Sizes always align with the LIVE rows (Hashes[k]
// belongs to Rows[Sel[k]]), so sidecar consumers never index through dead
// rows.
//
// Projection: when Proj is non-nil the chunk is a view — logical column j of
// row i is Rows[i][Proj[j]], and the stored tuples are wider than the
// chunk's schema. A projecting scan emits its stored window this way
// instead of copying every survivor. Readers that only look at a row go
// through Proj in place: key prehashes and per-row sizes (localStream,
// keyHasher), and the join probe, which gathers the projected columns of
// matching rows straight into its output tuples. Consumers that keep rows
// copy them through Chunk.row / Chunk.appendLive, which gather a projected
// row into the consumer's arena: RunToSink, the exchange scatter and
// collect loops, the broadcast replicate producer, materializeSource and
// pagedScanInto, and the spill join's chunkSeq adapter. Hashes and Sizes
// are always of the projected (logical) row.
//
// Kept rows share value storage with the producer (arena- or
// dataset-backed, valid for the execution); a consumer retaining rows
// copies only tuple headers — or, for a view, the projected values.
type Chunk struct {
	Rows   []types.Tuple
	Sel    []int32  // live row indexes into Rows, ascending; nil = all rows live
	Proj   []int    // logical column j of a row is Rows[i][Proj[j]]; nil = identity
	Hashes []uint64 // key prehashes aligned with live rows, nil when not computed
	Sizes  []int64  // encoded byte sizes aligned with live rows, nil when not computed
}

// Live returns the number of live rows in the chunk.
func (c *Chunk) Live() int {
	if c.Sel != nil {
		return len(c.Sel)
	}
	return len(c.Rows)
}

// stored returns the stored tuple behind live row k (full width on a view).
func (c *Chunk) stored(k int) types.Tuple {
	if c.Sel != nil {
		return c.Rows[c.Sel[k]]
	}
	return c.Rows[k]
}

// row returns live row k as a tuple the caller may keep: the stored tuple
// itself, or on a view its projected columns gathered into arena — the one
// copy a projected row pays, made only where a consumer keeps it.
func (c *Chunk) row(k int, arena *types.Arena) types.Tuple {
	t := c.stored(k)
	if c.Proj == nil {
		return t
	}
	pt := arena.Make(len(c.Proj))
	for j, col := range c.Proj {
		pt[j] = t[col]
	}
	return pt
}

// appendLive appends the chunk's live rows to dst in order, gathering a
// view's projected columns into arena (see row).
func (c *Chunk) appendLive(dst []types.Tuple, arena *types.Arena) []types.Tuple {
	if c.Sel == nil && c.Proj == nil {
		return append(dst, c.Rows...)
	}
	for k, n := 0, c.Live(); k < n; k++ {
		dst = append(dst, c.row(k, arena))
	}
	return dst
}

// keyHasher computes chunks' join-key prehashes into a reused buffer,
// aligned with the live rows. keyCols are logical columns; on a view they
// resolve through Proj to stored offsets, so a projected row hashes exactly
// as its gathered copy would.
type keyHasher struct {
	keyCols []int
	hashes  []uint64
	stored  []int // keyCols resolved through a view's Proj
}

func (h *keyHasher) hash(c *Chunk) []uint64 {
	if cap(h.hashes) < len(c.Rows) {
		// Size for the whole window, not the live count: selections vary
		// per window, and growing to each new maximum would allocate on
		// every larger one.
		h.hashes = make([]uint64, 0, len(c.Rows))
	}
	cols := h.keyCols
	if c.Proj != nil {
		h.stored = h.stored[:0]
		for _, kc := range h.keyCols {
			h.stored = append(h.stored, c.Proj[kc])
		}
		cols = h.stored
	}
	if c.Sel != nil {
		h.hashes = types.HashKeysSelInto(c.Rows, c.Sel, cols, h.hashes)
	} else {
		h.hashes = types.HashKeysInto(c.Rows, cols, h.hashes)
	}
	return h.hashes
}

// Cursor streams one partition's chunks. Next returns io.EOF at a clean
// end. A cursor is single-goroutine; cursors of different partitions may be
// pulled concurrently.
type Cursor interface {
	Next() (*Chunk, error)
}

// Source is a partitioned pull-based chunk producer — the streaming face of
// a relation or dataset scan. Schema and partitioning are known before any
// row is pulled, so joins can plan output shape and exchange skipping up
// front exactly as they do for materialized relations.
type Source interface {
	Schema() *types.Schema
	Parts() int
	// PartCols mirrors Relation.PartCols: the column offsets the stream is
	// hash-partitioned on, nil when unknown.
	PartCols() []int
	// PartBytesHint returns partition p's total encoded bytes when the
	// producer knows them without walking rows (cached dataset sizes), or
	// -1 when the consumer must sum per-row sizes itself.
	PartBytesHint(p int) int64
	// Open starts partition p's cursor. Each partition is opened at most
	// once per execution.
	Open(p int) (Cursor, error)
}

// Sink consumes one stage's output chunk-by-chunk. Emit is called from
// partition worker goroutines — concurrently across partitions, in output
// order within one partition — and must not retain rows beyond the call
// (it copies the tuple headers it keeps). The rows' value storage is
// arena-backed by the producing operator and stays valid.
type Sink interface {
	Emit(p int, rows []types.Tuple) error
}

// SinkFactory builds the stage's sink once the join has validated its
// inputs and knows the output schema and partitioning. Streaming joins call
// it exactly once before the first Emit.
type SinkFactory func(schema *types.Schema, partCols []int) (Sink, error)

// relationSink collects output chunks into partition slices — the adapter
// that lets the Relation-in/Relation-out join entry points run the
// streaming executors underneath.
type relationSink struct {
	parts [][]types.Tuple
}

func newRelationSink(nparts int) *relationSink {
	return &relationSink{parts: make([][]types.Tuple, nparts)}
}

func (s *relationSink) Emit(p int, rows []types.Tuple) error {
	s.parts[p] = append(s.parts[p], rows...)
	return nil
}

// RunToSink streams a source straight into a sink, partition-parallel —
// the fused scan→sink pipeline of a push-down stage: filter, projection,
// statistics observation, and write metering all happen in the one pass
// over each chunk. Chunks carrying a selection vector or a projection are
// flattened through a reusable header buffer here — sinks see dense row
// slices — with projected rows gathered into a per-partition arena, since
// sinks keep the headers they are handed.
func RunToSink(ctx *Context, src Source, sink Sink) error {
	return forEachPart(src.Parts(), func(p int) error {
		cur, err := src.Open(p)
		if err != nil {
			return err
		}
		var dense []types.Tuple
		var arena types.Arena
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			c, err := cur.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			rows := c.Rows
			if c.Sel != nil || c.Proj != nil {
				dense = c.appendLive(dense[:0], &arena)
				rows = dense
			}
			if err := sink.Emit(p, rows); err != nil {
				return err
			}
		}
	})
}

// relationSource adapts a materialized Relation to the Source interface:
// cursors slide fixed-capacity windows over the partition slices, zero-copy.
type relationSource struct {
	rel  *Relation
	rows int
}

// SourceOf returns a streaming view over a materialized relation, windowed
// at the execution's configured chunk capacity.
func SourceOf(ctx *Context, rel *Relation) Source {
	return &relationSource{rel: rel, rows: ctx.chunkRows()}
}

func (s *relationSource) Schema() *types.Schema { return s.rel.Schema }
func (s *relationSource) Parts() int            { return len(s.rel.Parts) }
func (s *relationSource) PartCols() []int       { return s.rel.PartCols }

// PartBytesHint reports cached sizes only: forcing the relation's lazy size
// pass here would add a whole-relation walk before the first chunk.
// Consumers fall back to summing per-row sizes as the rows stream past.
func (s *relationSource) PartBytesHint(p int) int64 {
	return s.rel.sizes.PartIfKnown(p)
}

func (s *relationSource) Open(p int) (Cursor, error) {
	return &sliceCursor{rows: s.rel.Parts[p], size: s.rows}, nil
}

// sliceCursor windows an in-memory row slice into chunks.
type sliceCursor struct {
	rows []types.Tuple
	size int
	off  int
	c    Chunk
}

func (c *sliceCursor) Next() (*Chunk, error) {
	if c.off >= len(c.rows) {
		return nil, io.EOF
	}
	end := min(c.off+c.size, len(c.rows))
	c.c = Chunk{Rows: c.rows[c.off:end]}
	c.off = end
	return &c.c, nil
}

package types

import "math"

// This file is the column-major face of the tuple spine: typed column
// vectors gathered out of row windows and a per-window gather cache. Vectors
// exist so the scan's predicate kernels run over dense typed slices instead
// of 32-byte tagged unions, while the row form
// stays authoritative: a ColVec is always derived from rows, never the other
// way around, so every row-at-a-time operator keeps working unmodified.

// ColVec is one column of a row window in columnar form: exactly one typed
// payload slice (selected by Kind) plus a validity slice, both aligned with
// the window's rows. Mixed marks a gather that found a non-null value of a
// kind other than the schema's — the payload slices are then invalid and
// consumers must fall back to the row form.
type ColVec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	// Null[r] reports row r's value as NULL; the payload slot is zeroed.
	Null  []bool
	Mixed bool
}

// Gather fills v from column col of rows, decoding into the typed payload
// for want (the schema kind). Buffers are reused across calls when capacity
// suffices. Kinds other than int/float/string have no vectorized consumers
// and gather as Mixed immediately.
func (v *ColVec) Gather(rows []Tuple, col int, want Kind) {
	n := len(rows)
	v.Kind = want
	v.Mixed = false
	if cap(v.Null) < n {
		v.Null = make([]bool, n)
	}
	v.Null = v.Null[:n]
	// The loops read each value through a pointer (a Value is a multi-word
	// tagged union; copying it per row costs more than the decode) and write
	// through slice locals: stores through v.Ints[r]/v.Null[r] would force
	// the compiler to reload the slice headers from *v every iteration, which
	// measures ~3x slower than keeping them in registers.
	nulls := v.Null
	switch want {
	case KindInt:
		if cap(v.Ints) < n {
			v.Ints = make([]int64, n)
		}
		v.Ints = v.Ints[:n]
		ints := v.Ints
		//dynopt:hotpath
		for r := range rows {
			val := &rows[r][col]
			switch val.K {
			case KindInt:
				nulls[r], ints[r] = false, int64(val.num)
			case KindNull:
				nulls[r], ints[r] = true, 0
			default:
				v.Mixed = true
				return
			}
		}
	case KindFloat:
		if cap(v.Floats) < n {
			v.Floats = make([]float64, n)
		}
		v.Floats = v.Floats[:n]
		floats := v.Floats
		//dynopt:hotpath
		for r := range rows {
			val := &rows[r][col]
			switch val.K {
			case KindFloat:
				nulls[r], floats[r] = false, math.Float64frombits(val.num)
			case KindNull:
				nulls[r], floats[r] = true, 0
			default:
				v.Mixed = true
				return
			}
		}
	case KindString:
		if cap(v.Strs) < n {
			v.Strs = make([]string, n)
		}
		v.Strs = v.Strs[:n]
		strs := v.Strs
		//dynopt:hotpath
		for r := range rows {
			val := &rows[r][col]
			switch val.K {
			case KindString:
				nulls[r], strs[r] = false, val.S
			case KindNull:
				nulls[r], strs[r] = true, ""
			default:
				v.Mixed = true
				return
			}
		}
	default:
		v.Mixed = true
	}
}

// ColSource provides columnar access to the current row window. Col returns
// the vector for schema column offset i, valid until the window advances;
// a Mixed result (or nil source) means the consumer must use the row form.
type ColSource interface {
	Col(i int) *ColVec
}

// ColCache is a lazy per-window gather cache: each column is decoded at most
// once per window, on first request, into buffers reused across windows.
// Producers call SetWindow as they advance; consumers (predicate kernels)
// call Col for just the columns they touch, so a
// window whose columns nobody asks for costs nothing.
type ColCache struct {
	schema *Schema
	rows   []Tuple
	vecs   []ColVec
	gen    []uint64 // window generation each column was gathered at
	cur    uint64
}

// NewColCache builds a cache for windows of the given schema.
func NewColCache(schema *Schema) *ColCache {
	return &ColCache{
		schema: schema,
		vecs:   make([]ColVec, schema.Len()),
		gen:    make([]uint64, schema.Len()),
	}
}

// SetWindow advances the cache to a new row window, invalidating every
// cached vector without touching their buffers.
func (c *ColCache) SetWindow(rows []Tuple) {
	c.rows = rows
	c.cur++
}

// Col implements ColSource: the vector for column i of the current window,
// gathered on first request per window.
func (c *ColCache) Col(i int) *ColVec {
	v := &c.vecs[i]
	if c.gen[i] != c.cur {
		v.Gather(c.rows, i, c.schema.Fields[i].Kind)
		c.gen[i] = c.cur
	}
	return v
}

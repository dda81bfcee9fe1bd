package types

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Columnar page codec backing the disk-native dataset store. A page holds a
// window of rows from one partition, encoded column-chunked so a reader can
// decode exactly the columns a scan needs and skip the rest without touching
// their bytes (projection pushdown at the storage layer). Pages ride inside
// PageFile frames using the same len|crc block discipline as the run-file
// codec, so every at-rest damage mode — bit flip, truncated tail, torn write
// — fails a checksum instead of decoding into wrong rows.
//
// Page payload layout:
//
//	page    = uvarint nrows | uvarint ncols | column*
//	column  = uvarint encLen | colenc                (encLen bytes follow)
//	colenc  = typed | fallback
//	typed   = 0x00 | kind byte | nullFlag byte | nullBitmap? | payload
//	fallback= 0x01 | value*                          (one tagged value per row)
//
// Typed payloads are dense per-kind arrays aligned with the page's rows
// (int/float: 8 little-endian bytes each, NULL slots zeroed; bool: one byte;
// string: uvarint length + bytes, NULL slots zero-length), with NULLs carried
// in the optional bitmap. A column whose values disagree with the schema kind
// — or a kind with no dense form — falls back to per-value tag encoding, the
// same shape EncodeTuple uses, and decodes to row-form values.
//
// Zone-map statistics (per-column min/max over non-NULL values under
// Value.Compare, plus the NULL count) are computed during encoding and stored
// by the page directory, not in the page payload: pruning consults them
// before any page byte is read.

// MaxPageRows bounds one page's row count; the decoder classifies larger
// stored counts as corruption instead of allocating attacker-controlled
// amounts.
const MaxPageRows = 1 << 20

const (
	pageColTyped    = 0x00
	pageColFallback = 0x01
)

// CRC32C returns the Castagnoli CRC of b — the checksum both the run-file
// and page-file frames use, exported so the storage layer frames pages with
// the identical discipline.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// CRC32CUpdate extends a running Castagnoli CRC with b — the incremental
// form backing a page file's whole-file checksum.
func CRC32CUpdate(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// PageColStats is one column's zone-map entry: min/max over the page's
// non-NULL values (ordered by Value.Compare, so pruning and predicate
// evaluation agree exactly) and the NULL count. HasMinMax is false when the
// column held no non-NULL values.
type PageColStats struct {
	Min, Max  Value
	HasMinMax bool
	Nulls     int64
}

// EncodePage appends the page encoding of rows (all full schema width) to
// dst, returning the extended slice and the per-column zone-map stats. An
// empty rows slice encodes a valid empty page.
func EncodePage(dst []byte, schema *Schema, rows []Tuple) ([]byte, []PageColStats) {
	ncols := schema.Len()
	st := make([]PageColStats, ncols)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(ncols))
	var scratch []byte
	for c := 0; c < ncols; c++ {
		scratch = encodePageCol(scratch[:0], schema.Fields[c].Kind, rows, c, &st[c])
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	return dst, st
}

// encodePageCol encodes column c of rows, filling its zone-map stats.
func encodePageCol(dst []byte, want Kind, rows []Tuple, c int, st *PageColStats) []byte {
	// One stats pass decides the encoding (typed iff every non-NULL value
	// matches the schema kind and the kind has a dense form) and computes the
	// zone map over all non-NULL values, whichever encoding is taken.
	typed := want == KindInt || want == KindFloat || want == KindString || want == KindBool
	nulls := 0
	for r := range rows {
		v := &rows[r][c]
		if v.K == KindNull {
			nulls++
			continue
		}
		if v.K != want {
			typed = false
		}
		if !st.HasMinMax {
			st.Min, st.Max, st.HasMinMax = *v, *v, true
		} else {
			if v.Compare(st.Min) < 0 {
				st.Min = *v
			}
			if v.Compare(st.Max) > 0 {
				st.Max = *v
			}
		}
	}
	st.Nulls = int64(nulls)
	if !typed {
		dst = append(dst, pageColFallback)
		for r := range rows {
			dst = AppendValue(dst, rows[r][c])
		}
		return dst
	}
	dst = append(dst, pageColTyped, byte(want))
	if nulls == 0 {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		bm := make([]byte, (len(rows)+7)/8)
		for r := range rows {
			if rows[r][c].K == KindNull {
				bm[r>>3] |= 1 << (r & 7)
			}
		}
		dst = append(dst, bm...)
	}
	switch want {
	case KindInt, KindFloat:
		//dynopt:hotpath
		for r := range rows {
			dst = binary.LittleEndian.AppendUint64(dst, rows[r][c].num)
		}
	case KindString:
		//dynopt:hotpath
		for r := range rows {
			s := rows[r][c].S
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	case KindBool:
		//dynopt:hotpath
		for r := range rows {
			b := byte(0)
			if rows[r][c].B {
				b = 1
			}
			dst = append(dst, b)
		}
	}
	return dst
}

// AppendValue encodes one tagged value — the fallback per-value form,
// identical in shape to EncodeTuple's element encoding. The page directory
// also uses it for zone-map min/max values and persistent index keys.
func AppendValue(dst []byte, v Value) []byte {
	switch v.K {
	case KindInt, KindFloat:
		dst = append(dst, byte(v.K))
		dst = binary.LittleEndian.AppendUint64(dst, v.num)
	case KindString:
		dst = append(dst, byte(KindString))
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	case KindBool:
		b := byte(0)
		if v.B {
			b = 1
		}
		dst = append(dst, byte(KindBool), b)
	default:
		dst = append(dst, byte(KindNull))
	}
	return dst
}

// DecodeValue decodes one tagged value from src, returning the value and
// bytes consumed. Malformed input is classified faults.ErrCorrupt.
func DecodeValue(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, corruptf("page value: truncated tag")
	}
	k := Kind(src[0])
	off := 1
	switch k {
	case KindNull:
		return Value{}, off, nil
	case KindInt, KindFloat:
		if off+8 > len(src) {
			return Value{}, 0, corruptf("page value: truncated %v payload", k)
		}
		return Value{K: k, num: binary.LittleEndian.Uint64(src[off:])}, off + 8, nil
	case KindString:
		sl, m := binary.Uvarint(src[off:])
		if m <= 0 || sl > MaxRecordBytes {
			return Value{}, 0, corruptf("page value: string length %d out of bounds", sl)
		}
		if uint64(len(src)-off-m) < sl {
			return Value{}, 0, corruptf("page value: truncated string payload")
		}
		off += m
		return Value{K: KindString, S: string(src[off : off+int(sl)])}, off + int(sl), nil
	case KindBool:
		if off >= len(src) {
			return Value{}, 0, corruptf("page value: truncated bool payload")
		}
		return Value{K: KindBool, B: src[off] != 0}, off + 1, nil
	default:
		return Value{}, 0, corruptf("page value: unknown kind tag %d", k)
	}
}

// PageCol is one decoded page column. Exactly one of three states holds:
// Skipped (the scan did not need the column; no bytes were decoded), typed
// (Vec holds the dense form), or Fallback (Vals holds row-form values —
// mixed-kind columns and bools, which have no dense vector consumers).
type PageCol struct {
	Vec      ColVec
	Vals     []Value
	Fallback bool
	Skipped  bool
}

// PageData is one decoded page: per-column decoded state aligned with the
// page's rows. Buffers are reused across Decode calls on the same PageData.
type PageData struct {
	NRows int
	Cols  []PageCol
}

// Value returns row r of column c (NULL for skipped columns).
func (pd *PageData) Value(c, r int) Value {
	col := &pd.Cols[c]
	if col.Skipped {
		return Value{}
	}
	if col.Fallback {
		return col.Vals[r]
	}
	return col.Vec.ValueAt(r)
}

// Tuple materializes row r as a freshly allocated full-width tuple.
func (pd *PageData) Tuple(r int) Tuple {
	t := make(Tuple, len(pd.Cols))
	for c := range pd.Cols {
		t[c] = pd.Value(c, r)
	}
	return t
}

// NewRows returns n zeroed (all-NULL) rows of the given width cut from one
// backing slab: two allocations however many rows. Rows are full-sliced, so
// an append to one never writes into the next.
func NewRows(n, width int) []Tuple {
	slab := make([]Value, n*width)
	rows := make([]Tuple, n)
	//dynopt:hotpath
	for r := range rows {
		rows[r] = slab[r*width : (r+1)*width : (r+1)*width]
	}
	return rows
}

// FillRows writes the page's decoded columns into rows, one column at a
// time: rows[r][c] becomes row r of column c, NULL slots included, for every
// r < len(rows) ≤ NRows. Rows are at least len(pd.Cols) wide. Skipped
// columns are not written, so their slots keep whatever the caller's
// storage held — zero (NULL) in a fresh slab, and still zero in a slab
// reused under the same need mask. Typed columns are int, float or string
// (decode turns bools into row-form values); a loop per kind fills about
// 1.6x as fast as ValueAt's per-row switch.
func (pd *PageData) FillRows(rows []Tuple) {
	for c := range pd.Cols {
		col := &pd.Cols[c]
		if col.Skipped {
			continue
		}
		if col.Fallback {
			vals := col.Vals[:len(rows)]
			//dynopt:hotpath
			for r, t := range rows {
				t[c] = vals[r]
			}
			continue
		}
		v := &col.Vec
		nulls := v.Null[:len(rows)]
		switch v.Kind {
		case KindInt:
			ints := v.Ints[:len(rows)]
			//dynopt:hotpath
			for r, t := range rows {
				if nulls[r] {
					t[c] = Value{}
				} else {
					t[c] = Value{K: KindInt, num: uint64(ints[r])}
				}
			}
		case KindFloat:
			floats := v.Floats[:len(rows)]
			//dynopt:hotpath
			for r, t := range rows {
				if nulls[r] {
					t[c] = Value{}
				} else {
					t[c] = Value{K: KindFloat, num: math.Float64bits(floats[r])}
				}
			}
		case KindString:
			strs := v.Strs[:len(rows)]
			//dynopt:hotpath
			for r, t := range rows {
				if nulls[r] {
					t[c] = Value{}
				} else {
					t[c] = Value{K: KindString, S: strs[r]}
				}
			}
		}
	}
}

// ValueAt reconstructs row r of a decoded typed vector as a Value.
func (v *ColVec) ValueAt(r int) Value {
	if v.Null != nil && v.Null[r] {
		return Value{}
	}
	switch v.Kind {
	case KindInt:
		return Value{K: KindInt, num: uint64(v.Ints[r])}
	case KindFloat:
		return Value{K: KindFloat, num: math.Float64bits(v.Floats[r])}
	case KindString:
		return Value{K: KindString, S: v.Strs[r]}
	default:
		return Value{}
	}
}

// DecodePage decodes a page payload into pd. need[i] == false skips column i
// entirely — its bytes are jumped over, nothing is allocated or decoded (the
// storage face of projection pushdown); a nil need decodes every column. The
// schema must be the one the page was encoded with; any disagreement, bound
// violation, or truncation is classified faults.ErrCorrupt.
func (pd *PageData) DecodePage(payload []byte, schema *Schema, need []bool) error {
	nrows, off := binary.Uvarint(payload)
	if off <= 0 || nrows > MaxPageRows {
		return corruptf("page: bad row count")
	}
	ncols, m := binary.Uvarint(payload[off:])
	if m <= 0 || int(ncols) != schema.Len() {
		return corruptf("page: column count %d disagrees with schema width %d", ncols, schema.Len())
	}
	off += m
	pd.NRows = int(nrows)
	if cap(pd.Cols) < int(ncols) {
		pd.Cols = make([]PageCol, ncols)
	}
	pd.Cols = pd.Cols[:ncols]
	for c := range pd.Cols {
		encLen, m := binary.Uvarint(payload[off:])
		if m <= 0 || encLen > uint64(len(payload)-off-m) {
			return corruptf("page: column %d length %d exceeds payload", c, encLen)
		}
		off += m
		enc := payload[off : off+int(encLen)]
		off += int(encLen)
		col := &pd.Cols[c]
		if need != nil && !need[c] {
			col.Skipped, col.Fallback = true, false
			continue
		}
		if err := col.decode(enc, schema.Fields[c].Kind, int(nrows)); err != nil {
			return err
		}
	}
	if off != len(payload) {
		return corruptf("page: %d trailing bytes", len(payload)-off)
	}
	return nil
}

// decode fills one column from its encoding.
func (col *PageCol) decode(enc []byte, want Kind, nrows int) error {
	col.Skipped = false
	if len(enc) == 0 {
		return corruptf("page column: empty encoding")
	}
	tag := enc[0]
	enc = enc[1:]
	if tag == pageColFallback {
		col.Fallback = true
		if cap(col.Vals) < nrows {
			col.Vals = make([]Value, nrows)
		}
		col.Vals = col.Vals[:nrows]
		off := 0
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			v, n, err := DecodeValue(enc[off:])
			if err != nil {
				return err
			}
			col.Vals[r] = v
			off += n
		}
		if off != len(enc) {
			return corruptf("page column: %d trailing fallback bytes", len(enc)-off)
		}
		return nil
	}
	if tag != pageColTyped || len(enc) < 2 {
		return corruptf("page column: bad encoding tag %d", tag)
	}
	kind := Kind(enc[0])
	if kind != want {
		return corruptf("page column: stored kind %v disagrees with schema kind %v", kind, want)
	}
	nullFlag := enc[1]
	enc = enc[2:]
	var bitmap []byte
	if nullFlag == 1 {
		bn := (nrows + 7) / 8
		if len(enc) < bn {
			return corruptf("page column: truncated null bitmap")
		}
		bitmap, enc = enc[:bn], enc[bn:]
	} else if nullFlag != 0 {
		return corruptf("page column: bad null flag %d", nullFlag)
	}
	if kind == KindBool {
		// Bools have no dense vector consumers (Gather treats them as Mixed);
		// decode straight to row-form values.
		col.Fallback = true
		if len(enc) != nrows {
			return corruptf("page column: bool payload of %d bytes for %d rows", len(enc), nrows)
		}
		if cap(col.Vals) < nrows {
			col.Vals = make([]Value, nrows)
		}
		col.Vals = col.Vals[:nrows]
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			if bitmap != nil && bitmap[r>>3]&(1<<(r&7)) != 0 {
				col.Vals[r] = Value{}
			} else {
				col.Vals[r] = Value{K: KindBool, B: enc[r] != 0}
			}
		}
		return nil
	}
	col.Fallback = false
	v := &col.Vec
	v.Kind = kind
	v.Mixed = false
	if cap(v.Null) < nrows {
		v.Null = make([]bool, nrows)
	}
	v.Null = v.Null[:nrows]
	nulls := v.Null
	if bitmap == nil {
		//dynopt:hotpath
		for r := range nulls {
			nulls[r] = false
		}
	} else {
		//dynopt:hotpath
		for r := range nulls {
			nulls[r] = bitmap[r>>3]&(1<<(r&7)) != 0
		}
	}
	switch kind {
	case KindInt:
		if len(enc) != nrows*8 {
			return corruptf("page column: int payload of %d bytes for %d rows", len(enc), nrows)
		}
		if cap(v.Ints) < nrows {
			v.Ints = make([]int64, nrows)
		}
		v.Ints = v.Ints[:nrows]
		ints := v.Ints
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			ints[r] = int64(binary.LittleEndian.Uint64(enc[r*8:]))
		}
	case KindFloat:
		if len(enc) != nrows*8 {
			return corruptf("page column: float payload of %d bytes for %d rows", len(enc), nrows)
		}
		if cap(v.Floats) < nrows {
			v.Floats = make([]float64, nrows)
		}
		v.Floats = v.Floats[:nrows]
		floats := v.Floats
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			floats[r] = math.Float64frombits(binary.LittleEndian.Uint64(enc[r*8:]))
		}
	case KindString:
		if cap(v.Strs) < nrows {
			v.Strs = make([]string, nrows)
		}
		v.Strs = v.Strs[:nrows]
		strs := v.Strs
		off := 0
		//dynopt:hotpath
		for r := 0; r < nrows; r++ {
			sl, m := binary.Uvarint(enc[off:])
			if m <= 0 || sl > MaxRecordBytes {
				//dynopt:alloc-ok corruption error path, never taken on intact pages
				return corruptf("page column: string length %d out of bounds", sl)
			}
			if uint64(len(enc)-off-m) < sl {
				return corruptf("page column: truncated string payload")
			}
			off += m
			strs[r] = string(enc[off : off+int(sl)]) //dynopt:alloc-ok string payloads must not alias the page buffer, which a scan's read buffer reuses
			off += int(sl)
		}
		if off != len(enc) {
			return corruptf("page column: %d trailing string bytes", len(enc)-off)
		}
	default:
		return corruptf("page column: kind %v has no typed decoder", kind)
	}
	return nil
}

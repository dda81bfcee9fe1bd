package types

import (
	"errors"
	"reflect"
	"testing"

	"dynopt/internal/faults"
)

func pageSchema() *Schema {
	return &Schema{Fields: []Field{
		{Name: "i", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
	}}
}

// decodeRows round-trips a page and materializes every row.
func decodeRows(t *testing.T, payload []byte, sch *Schema, need []bool) []Tuple {
	t.Helper()
	var pd PageData
	if err := pd.DecodePage(payload, sch, need); err != nil {
		t.Fatal(err)
	}
	out := make([]Tuple, pd.NRows)
	for r := range out {
		out[r] = pd.Tuple(r)
	}
	return out
}

func TestEncodePageEmpty(t *testing.T) {
	sch := pageSchema()
	payload, st := EncodePage(nil, sch, nil)
	if len(st) != sch.Len() {
		t.Fatalf("stats width %d", len(st))
	}
	for c, cs := range st {
		if cs.HasMinMax || cs.Nulls != 0 {
			t.Errorf("col %d stats non-empty: %+v", c, cs)
		}
	}
	var pd PageData
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	if pd.NRows != 0 {
		t.Errorf("NRows = %d", pd.NRows)
	}
}

func TestEncodePageAllNullColumn(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Null(), Float(1.5), Str("x"), Bool(true)},
		{Null(), Float(2.5), Null(), Bool(false)},
		{Null(), Null(), Str("z"), Null()},
	}
	payload, st := EncodePage(nil, sch, rows)
	if st[0].HasMinMax || st[0].Nulls != 3 {
		t.Errorf("all-NULL int column stats: %+v", st[0])
	}
	if !st[1].HasMinMax || st[1].Min.F() != 1.5 || st[1].Max.F() != 2.5 || st[1].Nulls != 1 {
		t.Errorf("float column stats: %+v", st[1])
	}
	if got := decodeRows(t, payload, sch, nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip diverged: %v", got)
	}
}

// TestEncodePageMixedKindFallback: a column whose values disagree with the
// schema kind takes the per-value fallback encoding and still round-trips
// exactly, with zone maps ordered by Value.Compare across kinds.
func TestEncodePageMixedKindFallback(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Int(1), Float(0.5), Str("a"), Bool(true)},
		{Str("not-an-int"), Float(1.5), Str("b"), Bool(false)},
		{Int(3), Null(), Int(9), Null()},
	}
	payload, _ := EncodePage(nil, sch, rows)
	var pd PageData
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	if !pd.Cols[0].Fallback || !pd.Cols[2].Fallback {
		t.Error("mixed-kind columns did not fall back")
	}
	if pd.Cols[1].Fallback {
		t.Error("clean float column fell back")
	}
	got := make([]Tuple, pd.NRows)
	for r := range got {
		got[r] = pd.Tuple(r)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip diverged: %v", got)
	}
}

// TestEncodePageBoolFallback: bools are typed on the wire (one byte per row)
// but decode to row-form values, since no vector kernel consumes them.
func TestEncodePageBoolFallback(t *testing.T) {
	sch := &Schema{Fields: []Field{{Name: "b", Kind: KindBool}}}
	rows := []Tuple{{Bool(true)}, {Null()}, {Bool(false)}}
	payload, st := EncodePage(nil, sch, rows)
	if !st[0].HasMinMax || st[0].Nulls != 1 {
		t.Errorf("bool stats: %+v", st[0])
	}
	var pd PageData
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	if !pd.Cols[0].Fallback {
		t.Error("bool column decoded as a vector")
	}
	for r, want := range rows {
		if !pd.Value(0, r).Equal(want[0]) && !(want[0].IsNull() && pd.Value(0, r).IsNull()) {
			t.Errorf("row %d: %v, want %v", r, pd.Value(0, r), want[0])
		}
	}
}

// TestDecodePageProjectionSkip: need[i]=false jumps the column's bytes —
// skipped columns surface as NULL, everything needed decodes exactly.
func TestDecodePageProjectionSkip(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Int(1), Float(0.5), Str("a"), Bool(true)},
		{Int(2), Float(1.5), Str("bb"), Bool(false)},
	}
	payload, _ := EncodePage(nil, sch, rows)
	var pd PageData
	if err := pd.DecodePage(payload, sch, []bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	if !pd.Cols[1].Skipped || !pd.Cols[3].Skipped {
		t.Error("unneeded columns not skipped")
	}
	for r := range rows {
		got := pd.Tuple(r)
		if !got[0].Equal(rows[r][0]) || !got[2].Equal(rows[r][2]) {
			t.Errorf("row %d needed columns diverged: %v", r, got)
		}
		if !got[1].IsNull() || !got[3].IsNull() {
			t.Errorf("row %d skipped columns not NULL: %v", r, got)
		}
	}
	// A reused PageData must clear the Skipped state when the next decode
	// needs every column.
	if err := pd.DecodePage(payload, sch, nil); err != nil {
		t.Fatal(err)
	}
	for r := range rows {
		if got := pd.Tuple(r); !reflect.DeepEqual(got, rows[r]) {
			t.Errorf("reused decode row %d: %v", r, got)
		}
	}
}

// TestDecodePageSchemaMismatch: a page decoded against the wrong schema
// width fails classified, never misaligns columns.
func TestDecodePageSchemaMismatch(t *testing.T) {
	payload, _ := EncodePage(nil, pageSchema(), []Tuple{{Int(1), Float(1), Str("x"), Bool(true)}})
	narrow := &Schema{Fields: []Field{{Name: "i", Kind: KindInt}}}
	var pd PageData
	if err := pd.DecodePage(payload, narrow, nil); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("schema width mismatch not classified: %v", err)
	}
	// Same width, different kind: the typed column tag must disagree.
	wrongKind := pageSchema()
	wrongKind.Fields[0].Kind = KindFloat
	if err := pd.DecodePage(payload, wrongKind, nil); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("schema kind mismatch not classified: %v", err)
	}
}

// TestDecodePageTruncationClassified: every truncation point of a page
// payload fails classified ErrCorrupt — no panic, no partial decode.
func TestDecodePageTruncationClassified(t *testing.T) {
	sch := pageSchema()
	rows := []Tuple{
		{Int(1), Float(0.5), Str("hello"), Bool(true)},
		{Null(), Float(1.5), Str("world"), Null()},
	}
	payload, _ := EncodePage(nil, sch, rows)
	var pd PageData
	for cut := 0; cut < len(payload); cut++ {
		if err := pd.DecodePage(payload[:cut], sch, nil); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(payload))
		} else if !errors.Is(err, faults.ErrCorrupt) {
			t.Fatalf("truncation at %d unclassified: %v", cut, err)
		}
	}
}

// TestFillRowsMatchesTuple: filling a row slab column by column yields the
// rows Tuple materializes one by one — typed, NULL, fallback, and bool
// columns alike — and a slab refilled by a second page under the same need
// mask holds only that page's values, its skipped columns still NULL.
func TestFillRowsMatchesTuple(t *testing.T) {
	sch := pageSchema()
	pageA := []Tuple{
		{Int(1), Float(0.5), Str("a"), Bool(true)},
		{Null(), Null(), Null(), Null()},
		{Int(3), Float(2.5), Str("ccc"), Bool(false)},
	}
	pageB := []Tuple{
		{Str("mixed"), Float(7), Null(), Bool(true)},
		{Int(5), Null(), Str("e"), Null()},
	}
	for _, need := range [][]bool{nil, {true, false, true, false}, {false, true, false, true}} {
		slab := NewRows(len(pageA), sch.Len())
		for _, rows := range [][]Tuple{pageA, pageB} {
			payload, _ := EncodePage(nil, sch, rows)
			var pd PageData
			if err := pd.DecodePage(payload, sch, need); err != nil {
				t.Fatal(err)
			}
			got := slab[:pd.NRows]
			pd.FillRows(got)
			for r := range got {
				if want := pd.Tuple(r); !reflect.DeepEqual(got[r], want) {
					t.Errorf("need %v, row %d: filled %v, want %v", need, r, got[r], want)
				}
			}
		}
	}
}

package types

import (
	"math"
	"math/rand"
	"testing"
)

// randColVal draws a value for a column declared as kind k: mostly the
// declared kind, sometimes NULL, with the numeric edge cases the hash paths
// special-case (integral floats, NaN, infinities, extreme ints).
func randColVal(r *rand.Rand, k Kind) Value {
	if r.Intn(5) == 0 {
		return Null()
	}
	switch k {
	case KindInt:
		switch r.Intn(4) {
		case 0:
			return Int(int64(r.Intn(10)))
		case 1:
			return Int(-int64(r.Intn(1000)))
		case 2:
			return Int(math.MaxInt64 - int64(r.Intn(3)))
		default:
			return Int(r.Int63() - r.Int63())
		}
	case KindFloat:
		switch r.Intn(6) {
		case 0:
			return Float(float64(r.Intn(100))) // integral: hashes as int
		case 1:
			return Float(math.NaN())
		case 2:
			return Float(math.Inf(1 - 2*r.Intn(2)))
		case 3:
			return Float(r.NormFloat64() * 1e18)
		default:
			return Float(r.Float64()*200 - 100)
		}
	case KindString:
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return Str(string(b))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func randRows(r *rand.Rand, kinds []Kind, n int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		t := make(Tuple, len(kinds))
		for j, k := range kinds {
			t[j] = randColVal(r, k)
		}
		rows[i] = t
	}
	return rows
}

// TestGatherMatchesRows checks that a gathered vector reproduces the row
// values exactly for every supported kind, NULLs included.
func TestGatherMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	kinds := []Kind{KindInt, KindFloat, KindString}
	rows := randRows(r, kinds, 500)
	var v ColVec
	for col, k := range kinds {
		v.Gather(rows, col, k)
		if v.Mixed {
			t.Fatalf("col %d kind %v gathered Mixed from kind-pure rows", col, k)
		}
		for i, row := range rows {
			val := row[col]
			if v.Null[i] != val.IsNull() {
				t.Fatalf("col %d row %d: Null=%v for %s", col, i, v.Null[i], val)
			}
			if val.IsNull() {
				continue
			}
			switch k {
			case KindInt:
				if v.Ints[i] != val.I() {
					t.Fatalf("col %d row %d: %d != %s", col, i, v.Ints[i], val)
				}
			case KindFloat:
				if math.Float64bits(v.Floats[i]) != math.Float64bits(val.F()) {
					t.Fatalf("col %d row %d: %v != %s", col, i, v.Floats[i], val)
				}
			case KindString:
				if v.Strs[i] != val.S {
					t.Fatalf("col %d row %d: %q != %s", col, i, v.Strs[i], val)
				}
			}
		}
	}
}

// TestGatherMixed checks that kind disagreements and unsupported kinds mark
// the vector Mixed instead of producing a bogus payload.
func TestGatherMixed(t *testing.T) {
	rows := []Tuple{{Int(1)}, {Str("oops")}, {Int(3)}}
	var v ColVec
	v.Gather(rows, 0, KindInt)
	if !v.Mixed {
		t.Fatal("int gather over a string value must report Mixed")
	}
	// NULLs alone are not mixed.
	v.Gather([]Tuple{{Int(1)}, {Null()}}, 0, KindInt)
	if v.Mixed {
		t.Fatal("NULLs must not report Mixed")
	}
	// Bool columns have no vectorized consumers: Mixed immediately.
	v.Gather([]Tuple{{Bool(true)}}, 0, KindBool)
	if !v.Mixed {
		t.Fatal("bool gather must report Mixed")
	}
}

// TestColCacheWindowInvalidation checks the lazy gather cache: a vector is
// valid for the window it was gathered from and re-gathered after SetWindow.
func TestColCacheWindowInvalidation(t *testing.T) {
	sch := NewSchema(Field{Name: "x", Kind: KindInt})
	c := NewColCache(sch)
	c.SetWindow([]Tuple{{Int(1)}, {Int(2)}})
	v := c.Col(0)
	if v.Ints[0] != 1 || v.Ints[1] != 2 {
		t.Fatalf("first window gathered %v", v.Ints)
	}
	if c.Col(0) != v {
		t.Fatal("second Col on the same window must reuse the cached vector")
	}
	c.SetWindow([]Tuple{{Int(9)}})
	v2 := c.Col(0)
	if len(v2.Ints) != 1 || v2.Ints[0] != 9 {
		t.Fatalf("after SetWindow gathered %v", v2.Ints)
	}
}

package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		k    Kind
		null bool
	}{
		{Null(), KindNull, true},
		{Int(42), KindInt, false},
		{Float(3.5), KindFloat, false},
		{Str("x"), KindString, false},
		{Bool(true), KindBool, false},
	}
	for _, c := range cases {
		if c.v.K != c.k {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.K, c.k)
		}
		if c.v.IsNull() != c.null {
			t.Errorf("IsNull(%v) = %v, want %v", c.v, c.v.IsNull(), c.null)
		}
	}
}

func TestIsTrue(t *testing.T) {
	if !Bool(true).IsTrue() {
		t.Error("Bool(true).IsTrue() = false")
	}
	for _, v := range []Value{Bool(false), Null(), Int(1), Str("true"), Float(1)} {
		if v.IsTrue() {
			t.Errorf("%v.IsTrue() = true, want false", v)
		}
	}
}

func TestAsFloatAndAsInt(t *testing.T) {
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Errorf("Int(7).AsFloat() = %v,%v", f, ok)
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %v,%v", f, ok)
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("Str.AsFloat() ok = true")
	}
	if i, ok := Float(9.9).AsInt(); !ok || i != 9 {
		t.Errorf("Float(9.9).AsInt() = %v,%v", i, ok)
	}
	if _, ok := Null().AsInt(); ok {
		t.Error("Null.AsInt() ok = true")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64, sa, sb string, pick uint8) bool {
		mk := func(p uint8, i int64, s string) Value {
			switch p % 4 {
			case 0:
				return Int(i)
			case 1:
				return Float(float64(i) / 2)
			case 2:
				return Str(s)
			default:
				return Null()
			}
		}
		va, vb := mk(pick, a, sa), mk(pick>>2, b, sb)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualValuesEqualHashes(t *testing.T) {
	f := func(i int64, s string) bool {
		if Int(i).Hash() != Int(i).Hash() {
			return false
		}
		if Str(s).Hash() != Str(s).Hash() {
			return false
		}
		// Integral floats hash like their int counterparts so mixed-kind
		// equi-joins partition consistently (only checkable when the
		// int survives the float64 round-trip exactly).
		if int64(float64(i)) == i && float64(i) == math.Trunc(float64(i)) {
			return Int(i).Hash() == Float(float64(i)).Hash()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		seen[Int(i).Hash()] = true
	}
	if len(seen) < 990 {
		t.Errorf("hash collisions too frequent: %d distinct of 1000", len(seen))
	}
}

func TestEncodedSize(t *testing.T) {
	cases := []struct {
		v    Value
		want int
	}{
		{Null(), 1},
		{Int(5), 9},
		{Float(1.5), 9},
		{Str("abc"), 4},
		{Bool(true), 2},
	}
	for _, c := range cases {
		if got := c.v.EncodedSize(); got != c.want {
			t.Errorf("EncodedSize(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestEncodedSizeCols pins the projected size to EncodedSize of the
// gathered tuple: every kind, NULL, repeated and reordered columns, the
// empty projection, and nil (every column).
func TestEncodedSizeCols(t *testing.T) {
	row := Tuple{Null(), Int(-7), Float(2.5), Str(""), Str("héllo"), Bool(false), Int(1 << 40)}
	projs := [][]int{
		nil,
		{},
		{0},
		{3},
		{4, 1},
		{6, 5, 4, 3, 2, 1, 0},
		{2, 2, 4, 0},
	}
	for _, proj := range projs {
		gathered := row
		if proj != nil {
			gathered = make(Tuple, len(proj))
			for j, c := range proj {
				gathered[j] = row[c]
			}
		}
		if got, want := row.EncodedSizeCols(proj), gathered.EncodedSize(); got != want {
			t.Errorf("EncodedSizeCols(%v) = %d, want %d", proj, got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{Str("hi"), "'hi'"},
		{Bool(false), "false"},
		{Float(2.5), "2.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

package expr

import (
	"dynopt/internal/types"
)

// This file compiles predicate trees into vectorized selection kernels: one
// closure per node transforming a selection vector (ascending row indexes
// into the current window) into the subset the node accepts, reading typed
// column vectors instead of 32-byte tagged values. The semantics are pinned
// to the scalar path exactly — a row survives the kernel iff the scalar
// Eval of the same node returns Bool(true) for it (so NULL operands drop
// the row, NOT resurrects it, and numeric cross-kind comparisons take
// Value.Compare's float route) — which is what lets the engine swap the
// kernel in without changing a single result row.
//
// Fallback rules (the "kernel fallback" contract):
//   - Call, Param-as-predicate, Arith, and comparisons whose operand kinds
//     the typed loops don't cover (bools, statically mismatched non-numeric
//     kinds) compile to a per-row kernel over the scalar Compile closure —
//     the tree still runs vectorized around them.
//   - A column whose gathered vector reports Mixed (stored values disagree
//     with the schema kind) makes that node fall back per window, at run
//     time, to the same scalar closure.
//   - A tree with no vectorizable node at all reports ok=false and the
//     caller stays on the plain scalar path.

// VecPred is a compiled vectorized predicate. It filters sel — ascending
// row indexes into rows — down to the rows the predicate accepts, preserving
// order. cols serves the window's column vectors (kernels touch only the
// columns they reference). The returned slice may alias sel's backing array
// or kernel-owned scratch: it is valid until the kernel's next invocation,
// and the kernel may overwrite sel's contents.
type VecPred func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error)

// CompileVec compiles e into a vectorized kernel against env's schema.
// ok=false (with nil error) means nothing in the tree vectorizes and the
// caller should use the scalar Compile path unchanged.
func CompileVec(e Expr, env *Env) (k VecPred, ok bool, err error) {
	k, vectorized, err := compileVecNode(e, env)
	if err != nil || !vectorized {
		return nil, false, err
	}
	return k, true, nil
}

// compileVecNode compiles one node; vectorized reports whether anything at
// or below this node runs columnar (a node whose whole subtree is scalar
// compiles to a single per-row kernel).
func compileVecNode(e Expr, env *Env) (k VecPred, vectorized bool, err error) {
	switch n := e.(type) {
	case *Compare:
		return compileVecCompare(n, env)
	case *Between:
		// x BETWEEN lo AND hi is x>=lo AND x<=hi for non-null operands, and
		// both forms drop the row when any operand is NULL (a null bound
		// makes its comparison kernel select nothing), so composing the two
		// comparison kernels is exact. The common column-between-constants
		// shape fuses into a single-pass kernel first.
		if k, fused, err := fuseBetween(n, env); err != nil || fused {
			return k, fused, err
		}
		ge, gok, err := compileVecCompare(&Compare{Op: CmpGe, L: n.X, R: n.Lo}, env)
		if err != nil {
			return nil, false, err
		}
		le, lok, err := compileVecCompare(&Compare{Op: CmpLe, L: n.X, R: n.Hi}, env)
		if err != nil {
			return nil, false, err
		}
		if !gok || !lok {
			// Half-scalar BETWEEN would evaluate a Compare node the scalar
			// tree never built; fall back to the node's own scalar form.
			k, err := scalarKernel(n, env)
			return k, false, err
		}
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			sel, err := ge(rows, cols, sel)
			if err != nil {
				return nil, err
			}
			return le(rows, cols, sel)
		}, true, nil
	case *And:
		kids := make([]VecPred, len(n.Kids))
		anyVec := false
		for i, kid := range n.Kids {
			kk, kv, err := compileVecNode(kid, env)
			if err != nil {
				return nil, false, err
			}
			kids[i] = kk
			anyVec = anyVec || kv
		}
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			var err error
			for _, kid := range kids {
				if len(sel) == 0 {
					return sel, nil
				}
				sel, err = kid(rows, cols, sel)
				if err != nil {
					return nil, err
				}
			}
			return sel, nil
		}, anyVec, nil
	case *Or:
		kids := make([]VecPred, len(n.Kids))
		anyVec := false
		for i, kid := range n.Kids {
			kk, kv, err := compileVecNode(kid, env)
			if err != nil {
				return nil, false, err
			}
			kids[i] = kk
			anyVec = anyVec || kv
		}
		// Scratch is owned by the closure and reused across windows: rem
		// holds the rows no kid has accepted yet, cand the copy each kid may
		// filter in place, marks the per-row accept flags the final pass
		// compacts from — walking the original sel keeps the union ascending
		// without a sort.
		var rem, cand []int32
		var marks []bool
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			if cap(marks) < len(rows) {
				marks = make([]bool, len(rows))
			}
			marks = marks[:len(rows)]
			for _, r := range sel {
				marks[r] = false
			}
			rem = append(rem[:0], sel...)
			for _, kid := range kids {
				if len(rem) == 0 {
					break
				}
				cand = append(cand[:0], rem...)
				m, err := kid(rows, cols, cand)
				if err != nil {
					return nil, err
				}
				for _, r := range m {
					marks[r] = true
				}
				rem = subtractSel(rem, m)
			}
			out := 0
			//dynopt:hotpath
			for _, r := range sel {
				if marks[r] {
					sel[out] = r
					out++
				}
			}
			return sel[:out], nil
		}, anyVec, nil
	case *Not:
		kid, kv, err := compileVecNode(n.Kid, env)
		if err != nil {
			return nil, false, err
		}
		var cand []int32
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			cand = append(cand[:0], sel...)
			m, err := kid(rows, cols, cand)
			if err != nil {
				return nil, err
			}
			// NOT accepts exactly the rows the kid did not (scalar: NULL and
			// false both negate to true), i.e. sel minus the kid's matches.
			return subtractSel(sel, m), nil
		}, kv, nil
	case *Literal, *Param:
		v, err := e.Eval(nil, env)
		if err != nil {
			return nil, false, err
		}
		keep := v.IsTrue()
		return func(_ []types.Tuple, _ types.ColSource, sel []int32) ([]int32, error) {
			if keep {
				return sel, nil
			}
			return sel[:0], nil
		}, false, nil
	default:
		k, err := scalarKernel(e, env)
		return k, false, err
	}
}

// subtractSel removes m (an ascending subset of sel) from sel in place and
// returns the shortened slice. The write index never passes the read index,
// so in-place compaction is safe.
func subtractSel(sel, m []int32) []int32 {
	if len(m) == 0 {
		return sel
	}
	k, j := 0, 0
	for _, r := range sel {
		if j < len(m) && m[j] == r {
			j++
			continue
		}
		sel[k] = r
		k++
	}
	return sel[:k]
}

// scalarKernel wraps a node's scalar compiled form as a per-row kernel —
// the per-node fallback that keeps Call/UDF/Arith/mixed-kind subtrees
// working inside an otherwise vectorized predicate.
func scalarKernel(e Expr, env *Env) (VecPred, error) {
	sc, err := Compile(e, env)
	if err != nil {
		return nil, err
	}
	return func(rows []types.Tuple, _ types.ColSource, sel []int32) ([]int32, error) {
		return scalarFilter(sc, rows, sel)
	}, nil
}

// scalarFilter filters sel through a scalar compiled predicate in place.
func scalarFilter(sc Compiled, rows []types.Tuple, sel []int32) ([]int32, error) {
	k := 0
	for _, r := range sel {
		v, err := sc(rows[r])
		if err != nil {
			return nil, err
		}
		if v.IsTrue() {
			sel[k] = r
			k++
		}
	}
	return sel[:k], nil
}

// acceptMask maps a comparison operator to the set of three-way compare
// outcomes it accepts, indexed lt/eq/gt. The mixed int/float kernels compute
// Value.Compare's -1/0/+1 result with typed operations and test it against
// the mask, so NaN behaves exactly as the scalar path (incomparable floats
// compare "equal") and every operator shares one loop shape. The same-kind
// kernels use the specialized per-operator loops below instead, which encode
// the identical semantics branch-free of the mask lookup.
func acceptMask(op CmpOp) (m [3]bool) {
	switch op {
	case CmpEq:
		m[1] = true
	case CmpNe:
		m[0], m[2] = true, true
	case CmpLt:
		m[0] = true
	case CmpLe:
		m[0], m[1] = true, true
	case CmpGt:
		m[2] = true
	case CmpGe:
		m[1], m[2] = true, true
	}
	return m
}

// vecOrd are the element types the specialized comparison loops cover.
type vecOrd interface {
	~int64 | ~float64 | ~string
}

// The per-operator selection loops. Each filters sel in place to the rows
// where xs[r] OP k holds, skipping NULLs. The operator expressions are the
// NaN-correct rewrites of Value.Compare's three-way result — Le as !(x>k),
// Ge as !(x<k), Eq as neither, Ne as either — so an incomparable float pair
// behaves exactly like the scalar path's "compare equal", while for total
// orders (int, string) they reduce to the direct operators.

//dynopt:hotpath
func selLtConst[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && xs[r] < k {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selLeConst[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && !(xs[r] > k) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selGtConst[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && xs[r] > k {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selGeConst[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && !(xs[r] < k) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selEqConst[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && !(xs[r] < k) && !(xs[r] > k) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selNeConst[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && (xs[r] < k || xs[r] > k) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

// The exact equality loops for total-order kinds: == on a string bails on a
// length mismatch before touching bytes, where the ordered rewrite above
// walks the common prefix twice. Floats must not use these — they would
// change NaN behavior.

//dynopt:hotpath
func selEqConstExact[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && xs[r] == k {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selNeConstExact[T vecOrd](xs []T, nulls []bool, sel []int32, k T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && xs[r] != k {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

// constLoop selects the specialized col-OP-const loop for an operator.
func constLoop[T vecOrd](op CmpOp) func([]T, []bool, []int32, T) []int32 {
	switch op {
	case CmpLt:
		return selLtConst[T]
	case CmpLe:
		return selLeConst[T]
	case CmpGt:
		return selGtConst[T]
	case CmpGe:
		return selGeConst[T]
	case CmpEq:
		return selEqConst[T]
	default:
		return selNeConst[T]
	}
}

// totalConstLoop is constLoop for total-order kinds (int, string): identical
// semantics, but Eq/Ne compile to the direct == / != forms.
func totalConstLoop[T vecOrd](op CmpOp) func([]T, []bool, []int32, T) []int32 {
	switch op {
	case CmpEq:
		return selEqConstExact[T]
	case CmpNe:
		return selNeConstExact[T]
	default:
		return constLoop[T](op)
	}
}

//dynopt:hotpath
func selLtCol[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && xs[r] < ys[r] {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selLeCol[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && !(xs[r] > ys[r]) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selGtCol[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && xs[r] > ys[r] {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selGeCol[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && !(xs[r] < ys[r]) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selEqCol[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && !(xs[r] < ys[r]) && !(xs[r] > ys[r]) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selNeCol[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && (xs[r] < ys[r] || xs[r] > ys[r]) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

// selBetweenConst filters sel to rows with lo <= xs[r] <= hi in one pass —
// the fused composition of the Ge and Le forms, same NaN behaviour.
//
//dynopt:hotpath
func selBetweenConst[T vecOrd](xs []T, nulls []bool, sel []int32, lo, hi T) []int32 {
	out := 0
	for _, r := range sel {
		if !nulls[r] && !(xs[r] < lo) && !(xs[r] > hi) {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

// fuseBetween compiles col BETWEEN const AND const as a single-pass kernel.
// fused=false (nil error) means the shape or kind pairing isn't covered and
// the caller composes the two comparison kernels instead.
func fuseBetween(n *Between, env *Env) (VecPred, bool, error) {
	x, err := classifyOperand(n.X, env)
	if err != nil {
		return nil, false, err
	}
	lo, err := classifyOperand(n.Lo, env)
	if err != nil {
		return nil, false, err
	}
	hi, err := classifyOperand(n.Hi, env)
	if err != nil {
		return nil, false, err
	}
	if !x.isCol || !lo.isLit || !hi.isLit {
		return nil, false, nil
	}
	if lo.val.IsNull() || hi.val.IsNull() {
		// Scalar semantics: a NULL bound fails the comparison for every row.
		return func(_ []types.Tuple, _ types.ColSource, sel []int32) ([]int32, error) {
			return sel[:0], nil
		}, true, nil
	}
	// The run-time Mixed fallback needs the node's scalar form.
	sc, err := Compile(n, env)
	if err != nil {
		return nil, false, err
	}
	ci := x.col
	numeric := func(v types.Value) bool { return v.K == types.KindInt || v.K == types.KindFloat }
	switch {
	case x.kind == types.KindInt && lo.val.K == types.KindInt && hi.val.K == types.KindInt:
		l, h := lo.val.I(), hi.val.I()
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return selBetweenConst(v.Ints, v.Null, sel, l, h), nil
		}, true, nil
	case x.kind == types.KindFloat && numeric(lo.val) && numeric(hi.val):
		l, _ := lo.val.AsFloat()
		h, _ := hi.val.AsFloat()
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return selBetweenConst(v.Floats, v.Null, sel, l, h), nil
		}, true, nil
	case x.kind == types.KindString && lo.val.K == types.KindString && hi.val.K == types.KindString:
		l, h := lo.val.S, hi.val.S
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return selBetweenConst(v.Strs, v.Null, sel, l, h), nil
		}, true, nil
	}
	return nil, false, nil
}

// colLoop selects the specialized col-OP-col loop for an operator.
func colLoop[T vecOrd](op CmpOp) func([]T, []T, []bool, []bool, []int32) []int32 {
	switch op {
	case CmpLt:
		return selLtCol[T]
	case CmpLe:
		return selLeCol[T]
	case CmpGt:
		return selGtCol[T]
	case CmpGe:
		return selGeCol[T]
	case CmpEq:
		return selEqCol[T]
	default:
		return selNeCol[T]
	}
}

//dynopt:hotpath
func selEqColExact[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && xs[r] == ys[r] {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

//dynopt:hotpath
func selNeColExact[T vecOrd](xs, ys []T, ln, rn []bool, sel []int32) []int32 {
	out := 0
	for _, r := range sel {
		if !ln[r] && !rn[r] && xs[r] != ys[r] {
			sel[out] = r
			out++
		}
	}
	return sel[:out]
}

// totalColLoop is colLoop for total-order kinds: Eq/Ne take the direct
// == / != forms (see totalConstLoop).
func totalColLoop[T vecOrd](op CmpOp) func([]T, []T, []bool, []bool, []int32) []int32 {
	switch op {
	case CmpEq:
		return selEqColExact[T]
	case CmpNe:
		return selNeColExact[T]
	default:
		return colLoop[T](op)
	}
}

// flipOp mirrors an operator across its operands: const OP col runs as
// col flip(OP) const.
func flipOp(op CmpOp) CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return op // Eq and Ne are symmetric
	}
}

// vecOperand classifies a Compare operand for kernel selection.
type vecOperand struct {
	col   int // schema offset when isCol
	isCol bool
	kind  types.Kind // column's schema kind when isCol
	val   types.Value
	isLit bool
}

func classifyOperand(e Expr, env *Env) (vecOperand, error) {
	switch n := e.(type) {
	case *Column:
		if i, ok := env.Schema.Index(n.key()); ok {
			return vecOperand{col: i, isCol: true, kind: env.Schema.Fields[i].Kind}, nil
		}
	case *Literal:
		return vecOperand{val: n.Val, isLit: true}, nil
	case *Param:
		v, err := n.Eval(nil, env)
		if err != nil {
			return vecOperand{}, err
		}
		return vecOperand{val: v, isLit: true}, nil
	}
	return vecOperand{}, nil
}

// compileVecCompare builds the typed kernel for one comparison, or its
// scalar fallback when the operand shapes or kinds aren't covered.
func compileVecCompare(n *Compare, env *Env) (VecPred, bool, error) {
	l, err := classifyOperand(n.L, env)
	if err != nil {
		return nil, false, err
	}
	r, err := classifyOperand(n.R, env)
	if err != nil {
		return nil, false, err
	}
	// The run-time Mixed fallback needs the node's scalar form either way.
	sc, err := Compile(n, env)
	if err != nil {
		return nil, false, err
	}
	switch {
	case l.isCol && r.isLit:
		if k := colConstKernel(l, r.val, n.Op, sc); k != nil {
			return k, true, nil
		}
	case l.isLit && r.isCol:
		if k := colConstKernel(r, l.val, flipOp(n.Op), sc); k != nil {
			return k, true, nil
		}
	case l.isCol && r.isCol:
		if k := colColKernel(l, r, n.Op, sc); k != nil {
			return k, true, nil
		}
	case l.isLit && r.isLit:
		v, err := n.Eval(nil, env)
		if err != nil {
			return nil, false, err
		}
		keep := v.IsTrue()
		return func(_ []types.Tuple, _ types.ColSource, sel []int32) ([]int32, error) {
			if keep {
				return sel, nil
			}
			return sel[:0], nil
		}, true, nil
	}
	k, err := scalarKernel(n, env)
	return k, false, err
}

// colConstKernel compiles col OP const for the covered kind pairs, or nil.
// Kind dispatch mirrors Value.Compare: int/int takes the exact integer
// path, any float involvement compares as float64, strings compare as
// strings; everything else (bools, statically mismatched kinds, NULL-kind
// schema columns) stays scalar.
func colConstKernel(c vecOperand, cv types.Value, op CmpOp, sc Compiled) VecPred {
	if cv.IsNull() {
		// Scalar semantics: a NULL operand makes the comparison false for
		// every row.
		return func(_ []types.Tuple, _ types.ColSource, sel []int32) ([]int32, error) {
			return sel[:0], nil
		}
	}
	m := acceptMask(op)
	ci := c.col
	switch {
	case c.kind == types.KindInt && cv.K == types.KindInt:
		k := cv.I()
		loop := totalConstLoop[int64](op)
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return loop(v.Ints, v.Null, sel, k), nil
		}
	case c.kind == types.KindInt && cv.K == types.KindFloat:
		// Value.Compare routes int-vs-float through float64; the per-row
		// conversion keeps this on the shared mask loop.
		f := cv.F()
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			xs, nulls := v.Ints, v.Null
			out := 0
			//dynopt:hotpath
			for _, r := range sel {
				if nulls[r] {
					continue
				}
				if m[cmp3Float(float64(xs[r]), f)] {
					sel[out] = r
					out++
				}
			}
			return sel[:out], nil
		}
	case c.kind == types.KindFloat && (cv.K == types.KindFloat || cv.K == types.KindInt):
		f, _ := cv.AsFloat()
		loop := constLoop[float64](op)
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return loop(v.Floats, v.Null, sel, f), nil
		}
	case c.kind == types.KindString && cv.K == types.KindString:
		s := cv.S
		loop := totalConstLoop[string](op)
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			v := cols.Col(ci)
			if v.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return loop(v.Strs, v.Null, sel, s), nil
		}
	}
	return nil
}

// colColKernel compiles col OP col for same-kind or numeric kind pairs.
func colColKernel(l, r vecOperand, op CmpOp, sc Compiled) VecPred {
	m := acceptMask(op)
	li, ri := l.col, r.col
	lInt, rInt := l.kind == types.KindInt, r.kind == types.KindInt
	lNum := lInt || l.kind == types.KindFloat
	rNum := rInt || r.kind == types.KindFloat
	switch {
	case lInt && rInt:
		loop := totalColLoop[int64](op)
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			lv, rv := cols.Col(li), cols.Col(ri)
			if lv.Mixed || rv.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return loop(lv.Ints, rv.Ints, lv.Null, rv.Null, sel), nil
		}
	case l.kind == types.KindFloat && r.kind == types.KindFloat:
		loop := colLoop[float64](op)
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			lv, rv := cols.Col(li), cols.Col(ri)
			if lv.Mixed || rv.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return loop(lv.Floats, rv.Floats, lv.Null, rv.Null, sel), nil
		}
	case lNum && rNum:
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			lv, rv := cols.Col(li), cols.Col(ri)
			if lv.Mixed || rv.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			ln, rn := lv.Null, rv.Null
			out := 0
			//dynopt:hotpath
			for _, r := range sel {
				if ln[r] || rn[r] {
					continue
				}
				if m[cmp3Float(numAt(lv, int(r)), numAt(rv, int(r)))] {
					sel[out] = r
					out++
				}
			}
			return sel[:out], nil
		}
	case l.kind == types.KindString && r.kind == types.KindString:
		loop := totalColLoop[string](op)
		return func(rows []types.Tuple, cols types.ColSource, sel []int32) ([]int32, error) {
			lv, rv := cols.Col(li), cols.Col(ri)
			if lv.Mixed || rv.Mixed {
				return scalarFilter(sc, rows, sel)
			}
			return loop(lv.Strs, rv.Strs, lv.Null, rv.Null, sel), nil
		}
	}
	return nil
}

// numAt reads row r of a numeric vector as float64 (Value.AsFloat).
func numAt(v *types.ColVec, r int) float64 {
	if v.Kind == types.KindInt {
		return float64(v.Ints[r])
	}
	return v.Floats[r]
}

// cmp3Float produces Value.Compare's three-way result for the mixed
// int/float mask loops as a mask index: 0 for less, 1 for equal, 2 for
// greater, with Compare's NaN behaviour — incomparable pairs land on
// "equal". The same-kind kernels use the specialized loops instead.
func cmp3Float(a, b float64) int {
	if a < b {
		return 0
	}
	if a > b {
		return 2
	}
	return 1
}

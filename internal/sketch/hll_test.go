package sketch

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func TestHLLInvalidPrecisionPanics(t *testing.T) {
	for _, p := range []uint8{0, 3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHLL(%d) did not panic", p)
				}
			}()
			NewHLL(p)
		}()
	}
}

func TestHLLEmpty(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	if got := h.Estimate(); got != 0 {
		t.Errorf("empty Estimate = %d", got)
	}
}

func TestHLLSmallExactish(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	for i := 0; i < 10; i++ {
		h.Add(hash64("v" + strconv.Itoa(i)))
	}
	got := h.Estimate()
	if got < 9 || got > 11 {
		t.Errorf("Estimate for 10 distinct = %d", got)
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	for rep := 0; rep < 100; rep++ {
		for i := 0; i < 50; i++ {
			h.Add(hash64("dup" + strconv.Itoa(i)))
		}
	}
	got := h.Estimate()
	if got < 45 || got > 55 {
		t.Errorf("Estimate for 50 distinct (x100 dups) = %d", got)
	}
}

func TestHLLAccuracyLarge(t *testing.T) {
	for _, n := range []int{1000, 50000, 200000} {
		h := NewHLL(DefaultHLLPrecision)
		for i := 0; i < n; i++ {
			h.Add(hash64("key-" + strconv.Itoa(i)))
		}
		got := float64(h.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		// Standard error at p=12 is ~1.6%; allow 5 sigma.
		if relErr > 0.08 {
			t.Errorf("n=%d: Estimate=%v relErr=%v", n, got, relErr)
		}
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	a := NewHLL(DefaultHLLPrecision)
	b := NewHLL(DefaultHLLPrecision)
	union := NewHLL(DefaultHLLPrecision)
	for i := 0; i < 30000; i++ {
		hv := hash64("a" + strconv.Itoa(i))
		a.Add(hv)
		union.Add(hv)
	}
	for i := 0; i < 30000; i++ {
		hv := hash64("b" + strconv.Itoa(i))
		b.Add(hv)
		union.Add(hv)
	}
	a.Merge(b)
	if a.Estimate() != union.Estimate() {
		t.Errorf("merged estimate %d != union estimate %d", a.Estimate(), union.Estimate())
	}
	a.Merge(nil) // no-op
}

func TestHLLMergeCommutativeProperty(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a1, b1 := NewHLL(8), NewHLL(8)
		a2, b2 := NewHLL(8), NewHLL(8)
		for _, x := range xs {
			a1.Add(x)
			a2.Add(x)
		}
		for _, y := range ys {
			b1.Add(y)
			b2.Add(y)
		}
		a1.Merge(b1)
		b2.Merge(a2)
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHLLMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge with mismatched precision did not panic")
		}
	}()
	NewHLL(8).Merge(NewHLL(10))
}

func TestHLLClone(t *testing.T) {
	h := NewHLL(8)
	for i := 0; i < 100; i++ {
		h.Add(hash64(strconv.Itoa(i)))
	}
	c := h.Clone()
	if c.Estimate() != h.Estimate() {
		t.Error("clone estimate differs")
	}
	c.Add(hash64("new-element-xyz"))
	// Original must be unaffected (register independence).
	h2 := NewHLL(8)
	for i := 0; i < 100; i++ {
		h2.Add(hash64(strconv.Itoa(i)))
	}
	if h.Estimate() != h2.Estimate() {
		t.Error("Clone shares registers with original")
	}
}

func TestHLLMonotoneUnderInsertProperty(t *testing.T) {
	f := func(xs []uint64) bool {
		h := NewHLL(8)
		prev := int64(0)
		for _, x := range xs {
			h.Add(x)
			e := h.Estimate()
			if e < prev {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHLLString(t *testing.T) {
	h := NewHLL(8)
	if h.String() == "" {
		t.Error("String() empty")
	}
	if h.Precision() != 8 {
		t.Errorf("Precision() = %d", h.Precision())
	}
}

// TestHLLEstimateCacheMatchesRecompute drives a seeded mix of Add, Merge,
// Clone, and codec round trips — including Adds and Merges that raise no
// register — and checks after every step that the cached Estimate equals a
// fresh recompute from the registers.
func TestHLLEstimateCacheMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHLL(8)
	check := func(step int, op string, s *HLL) {
		t.Helper()
		if got, want := s.Estimate(), s.estimate(); got != want {
			t.Fatalf("step %d (%s): cached Estimate %d, recompute %d", step, op, got, want)
		}
	}
	for step := 0; step < 5000; step++ {
		switch k := rng.Intn(10); {
		case k < 6:
			// A narrow value domain makes most later Adds raise nothing.
			h.Add(uint64(rng.Intn(2000)))
			check(step, "add", h)
		case k < 8:
			o := NewHLL(8)
			for i, n := 0, rng.Intn(50); i < n; i++ {
				o.Add(uint64(rng.Intn(4000)))
			}
			if rng.Intn(2) == 0 {
				o.Estimate() // merge from a sketch whose cache is warm
			}
			h.Merge(o)
			check(step, "merge", h)
		case k < 9:
			c := h.Clone()
			check(step, "clone", c)
			c.Add(uint64(rng.Int63()))
			check(step, "clone-add", c)
			check(step, "clone-source", h)
		default:
			d, _, err := DecodeHLL(h.Encode(nil))
			if err != nil {
				t.Fatal(err)
			}
			check(step, "decode", d)
		}
	}
}

// TestHLLEstimateConcurrentReaders reads one sketch's Estimate from several
// goroutines at once, as concurrent queries read shared base-dataset stats;
// run under -race it proves the cached estimate is race-free.
func TestHLLEstimateConcurrentReaders(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	for i := 0; i < 10000; i++ {
		h.Add(hash64("r" + strconv.Itoa(i)))
	}
	want := h.estimate()
	var wg sync.WaitGroup
	errs := make(chan int64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := h.Estimate(); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("concurrent Estimate = %d, want %d", got, want)
	}
}

package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicSetGetClear(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			s.Get(i)
		}()
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestCountAllNone(t *testing.T) {
	s := New(70)
	if !s.None() || s.All() || s.Count() != 0 {
		t.Fatal("fresh set state wrong")
	}
	for i := 0; i < 70; i++ {
		s.Set(i)
	}
	if s.Count() != 70 || !s.All() || s.None() {
		t.Fatal("full set state wrong")
	}

	z := New(0)
	if !z.All() || !z.None() {
		t.Fatal("empty set should be both All and None")
	}
}

func TestUnionWithCountsNewBits(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	added := a.UnionWith(b)
	if added != 1 {
		t.Fatalf("added = %d, want 1 (only bit 99 is new)", added)
	}
	for _, i := range []int{1, 50, 99} {
		if !a.Get(i) {
			t.Fatalf("bit %d missing after union", i)
		}
	}
	if a.Count() != 3 {
		t.Fatalf("count = %d, want 3", a.Count())
	}
	// Idempotent.
	if again := a.UnionWith(b); again != 0 {
		t.Fatalf("second union added %d bits", again)
	}
}

func TestUnionLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestCloneEqualIndependent(t *testing.T) {
	a := New(65)
	a.Set(64)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(0)
	if a.Get(0) {
		t.Fatal("clone shares storage")
	}
	if a.Equal(New(66)) {
		t.Fatal("Equal across lengths")
	}
}

func TestFromToBools(t *testing.T) {
	in := []bool{true, false, true, true, false}
	s := FromBools(in)
	out := s.ToBools()
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSetWordsMasksTail(t *testing.T) {
	s := New(5)
	s.SetWords([]uint64{^uint64(0)}) // all 64 bits, but only 5 valid
	if s.Count() != 5 {
		t.Fatalf("count = %d after SetWords, want 5 (tail masked)", s.Count())
	}
}

func TestString(t *testing.T) {
	s := New(4)
	s.Set(1)
	s.Set(3)
	if got := s.String(); got != "0101" {
		t.Fatalf("String() = %q, want 0101", got)
	}
}

// Property: union behaves exactly like the boolean-slice union.
func TestQuickUnionMatchesBoolModel(t *testing.T) {
	f := func(seedA, seedB int64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		ba, bb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			ba[i] = ra.Intn(2) == 1
			bb[i] = rb.Intn(2) == 1
		}
		sa, sb := FromBools(ba), FromBools(bb)
		sa.UnionWith(sb)
		for i := 0; i < n; i++ {
			if sa.Get(i) != (ba[i] || bb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of distinct Set calls.
func TestQuickCount(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%250) + 1
		r := rand.New(rand.NewSource(seed))
		s := New(n)
		distinct := map[int]bool{}
		for k := 0; k < 50; k++ {
			i := r.Intn(n)
			s.Set(i)
			distinct[i] = true
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomFill sets each bit of s independently with probability density.
func randomFill(s *Set, r *rand.Rand, density float64) {
	for i := 0; i < s.Len(); i++ {
		if r.Float64() < density {
			s.Set(i)
		}
	}
}

// TestNthClearMatchesEnumeration checks the rank/select kernel against a
// naive enumeration of clear bits, for every length in [0, 300] (so every
// tail width), densities from empty to full, and every rank from -1 to
// one past the last clear bit.
func TestNthClearMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		for _, density := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			s := New(n)
			randomFill(s, r, density)
			var clear []int
			for i := 0; i < n; i++ {
				if !s.Get(i) {
					clear = append(clear, i)
				}
			}
			for k := -1; k <= len(clear)+1; k++ {
				want := -1
				if k >= 0 && k < len(clear) {
					want = clear[k]
				}
				if got := s.NthClear(k); got != want {
					t.Fatalf("n=%d density=%v: NthClear(%d) = %d, want %d (set %s)", n, density, k, got, want, s)
				}
			}
		}
	}
}

// TestAllSetMatchesPerBit checks the masked window test against a per-bit
// loop for every window of up to 200 bits in a 320-bit set, so windows
// start at every offset and cross zero to three word boundaries; the sets
// are mostly full so that long all-set windows occur.
func TestAllSetMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const size = 320
	crossings := map[int]bool{}
	for trial := 0; trial < 8; trial++ {
		s := New(size)
		for i := 0; i < size; i++ {
			s.Set(i)
		}
		for c := 0; c < trial; c++ {
			s.Clear(r.Intn(size))
		}
		for from := 0; from < size; from++ {
			for n := 0; n <= 200 && from+n <= size; n++ {
				want := true
				for i := from; i < from+n; i++ {
					want = want && s.Get(i)
				}
				if got := s.AllSet(from, n); got != want {
					t.Fatalf("trial %d: AllSet(%d, %d) = %v, want %v", trial, from, n, got, want)
				}
				if n > 0 {
					crossings[(from+n-1)/64-from/64] = true
				}
			}
		}
	}
	for c := 0; c <= 3; c++ {
		if !crossings[c] {
			t.Errorf("no window crossed %d word boundaries", c)
		}
	}
}

func TestAllSetOutOfRangePanics(t *testing.T) {
	s := New(100)
	for _, w := range [][2]int{{-1, 2}, {99, 2}, {100, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AllSet(%d, %d) did not panic", w[0], w[1])
				}
			}()
			s.AllSet(w[0], w[1])
		}()
	}
	if !s.AllSet(100, 0) || !s.AllSet(-5, 0) {
		t.Fatal("empty windows must be vacuously all set")
	}
}

package perm

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// checkSourceMatches compares a Source seeded with seed against
// rand.NewSource(seed): the stream, a re-seed after drawing, and a
// permutation of n elements from the Shuffler against Random, with the
// generator states compared again after it.
func checkSourceMatches(t *testing.T, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	src := new(Source)
	src.Seed(seed)
	for k := 0; k < 2*srcLen; k++ {
		if g, w := src.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand %#x", seed, k, g, w)
		}
		if g, w := src.Int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, k, g, w)
		}
	}

	src.Seed(seed)
	r := rand.New(rand.NewSource(seed))
	want := Random(n, r)
	got := NewShuffler(n).Into(src, make([]int32, n))
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("seed %d n %d: Shuffler diverges from Random at %d: %d vs %d", seed, n, i, got[i], want[i])
		}
	}
	if g, w := src.Int63(), r.Int63(); g != w {
		t.Fatalf("seed %d n %d: after the shuffle the source draws %d, math/rand %d", seed, n, g, w)
	}
}

// FuzzSourceMatchesMathRand checks Source and Shuffler against math/rand
// for any seed and permutation length.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, 1, int32max, -int32max, 1 << 31, math.MinInt64, math.MaxInt64} {
		for _, n := range []uint16{0, 1, 2, 3, 64, 1000, 4097} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkSourceMatches(t, seed, int(n))
	})
}

// TestShuffleStepsLargeBounds checks the table entries beyond the fuzzed
// lengths, up to the largest bound Int31n takes: the accepted draws
// [0, max] are the largest whole number of residue blocks below 2³¹, and
// the fastmod remainder is v mod n at both ends of that range and between.
func TestShuffleStepsLargeBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []uint32{65536, 65537, 1<<20 + 7, 1 << 30, 1<<30 + 1, 3 << 29, int32max - 1, int32max} {
		st := newShuffleStep(n)
		if accepted := uint64(st.max) + 1; accepted%uint64(n) != 0 || 1<<31-accepted >= uint64(n) {
			t.Fatalf("n=%d: threshold %d does not cut 2³¹ at a whole block", n, st.max)
		}
		for k := 0; k < 1000; k++ {
			v := uint32(r.Int63n(int64(st.max) + 1))
			switch k {
			case 0:
				v = 0
			case 1:
				v = st.max
			}
			if got, _ := bits.Mul64(st.mul*uint64(v), uint64(n)); got != uint64(v%n) {
				t.Fatalf("n=%d v=%d: fastmod %d, want %d", n, v, got, v%n)
			}
		}
	}
}

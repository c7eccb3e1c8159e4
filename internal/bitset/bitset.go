// Package bitset provides a compact, fixed-size bit set used for the
// algorithms' knowledge payloads (progress-tree snapshots and done-job
// sets). Compared with []bool it is 8× denser, supports O(words) union —
// the monotone merge every algorithm relies on — and serializes directly.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-capacity bit set. The zero value is unusable; create
// sets with New.
type Set struct {
	n     int
	words []uint64
}

// New returns a set with capacity for n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// FromBools builds a set from a []bool.
func FromBools(b []bool) *Set {
	s := New(len(b))
	for i, v := range b {
		if v {
			s.Set(i)
		}
	}
	return s
}

// Len returns the capacity n.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// All reports whether every bit is set.
func (s *Set) All() bool { return s.Count() == s.n }

// None reports whether no bit is set.
func (s *Set) None() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith ORs other into s (the monotone knowledge merge). It returns
// the number of bits newly set in s. Both sets must have the same length.
func (s *Set) UnionWith(other *Set) int {
	if other.n != s.n {
		panic("bitset: UnionWith length mismatch")
	}
	return unionWords(s.words, other.words)
}

// OrWith ORs other into s without counting the change — the count-free
// sibling of UnionWith for scratch accumulators. Both sets must have the
// same length.
func (s *Set) OrWith(other *Set) {
	if other.n != s.n {
		panic("bitset: OrWith length mismatch")
	}
	orWords(s.words, other.words)
}

// onesCount is bits.OnesCount64, aliased so hot merge loops in this
// package read uniformly.
func onesCount(w uint64) int { return bits.OnesCount64(w) }

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with other's bits. Both sets must have the same
// length. It is the allocation-free counterpart of Clone, used by payload
// pools that reuse snapshot buffers.
func (s *Set) CopyFrom(other *Set) {
	if other.n != s.n {
		panic("bitset: CopyFrom length mismatch")
	}
	copy(s.words, other.words)
}

// ClearAll clears every bit, keeping the capacity.
func (s *Set) ClearAll() {
	clear(s.words)
}

// Equal reports whether both sets have identical length and contents.
func (s *Set) Equal(other *Set) bool {
	if other.n != s.n {
		return false
	}
	for i, w := range s.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// ToBools expands the set to a []bool.
func (s *Set) ToBools() []bool {
	out := make([]bool, s.n)
	for i := range out {
		out[i] = s.Get(i)
	}
	return out
}

// NthClear returns the index of the k-th clear bit (0-based, lowest index
// first), or -1 if k < 0 or fewer than k+1 bits are clear. It ranks whole
// words by popcount and selects within the one that holds the answer, so
// it costs O(words) and allocates nothing.
func (s *Set) NthClear(k int) int {
	if k < 0 {
		return -1
	}
	for wi, w := range s.words {
		c := ^w
		if wi == len(s.words)-1 && s.n%64 != 0 {
			c &= 1<<(uint(s.n)%64) - 1 // clear bits past n are not bits
		}
		if n := bits.OnesCount64(c); k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			c &= c - 1 // drop the lowest clear bit
		}
		return wi<<6 + bits.TrailingZeros64(c)
	}
	return -1
}

// AllSet reports whether every bit in [from, from+n) is set; an empty
// window (n ≤ 0) is vacuously all set. It tests the window a masked word
// at a time, for any n. The window must lie within [0, Len()).
func (s *Set) AllSet(from, n int) bool {
	if n <= 0 {
		return true
	}
	end := from + n - 1 // last bit of the window
	s.check(from)
	s.check(end)
	wi, last := from>>6, end>>6
	lo := ^uint64(0) << (uint(from) & 63)
	hi := ^uint64(0) >> (63 - uint(end)&63)
	if wi == last {
		m := lo & hi
		return s.words[wi]&m == m
	}
	if s.words[wi]&lo != lo {
		return false
	}
	for wi++; wi < last; wi++ {
		if s.words[wi] != ^uint64(0) {
			return false
		}
	}
	return s.words[last]&hi == hi
}

// Words exposes the raw backing words for serialization. The final word's
// unused high bits are always zero.
func (s *Set) Words() []uint64 { return s.words }

// SetWords overwrites the backing words (used by deserialization); the
// slice length must match.
func (s *Set) SetWords(w []uint64) {
	if len(w) != len(s.words) {
		panic("bitset: SetWords length mismatch")
	}
	copy(s.words, w)
	s.maskTail()
}

// maskTail zeroes bits beyond n in the last word.
func (s *Set) maskTail() {
	if s.n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % 64)) - 1
	}
}

// String renders the set as a 0/1 string, lowest index first (diagnostic).
func (s *Set) String() string {
	b := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

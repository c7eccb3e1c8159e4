package perm

import (
	"math/bits"
	"math/rand"
)

// Source is math/rand's generator — the additive lagged-Fibonacci
// generator x_k = x_{k-607} + x_{k-273} (mod 2⁶⁴) of Mitchell and Reeds —
// reimplemented so that machine builders can draw from it without an
// interface call per draw. From the same seed it produces the same stream
// as rand.NewSource, so it is a drop-in rand.Source64: rand.New(&s) behaves
// exactly like rand.New(rand.NewSource(seed)).
//
// Seeding is division-free. math/rand runs a seed through 1841 dependent
// steps of Park–Miller's x ← 48271·x mod (2³¹−1), each a Schrage
// decomposition with two divisions; Seed computes the k-th step directly
// as seed·48271^k mod (2³¹−1) from a table of powers, one independent
// multiply-and-fold per value.
//
// The zero Source is not seeded; call Seed before drawing.
type Source struct {
	tap, feed int
	vec       [srcLen]int64
}

var _ rand.Source64 = (*Source)(nil)

const (
	srcLen   = 607 // the generator's long lag (math/rand's rngLen)
	srcTap   = 273 // its short lag (rngTap)
	int32max = 1<<31 - 1
	// seedSkip is the number of Park–Miller steps math/rand discards
	// before the first state word; each state word then takes 3 steps.
	seedSkip = 20
	// zeroSeed replaces a seed ≡ 0 mod 2³¹−1, a fixed point of the
	// Park–Miller step (math/rand's rule).
	zeroSeed = 89482311
)

var (
	// srcCooked is math/rand's rngCooked table: the values its seeding
	// XORs into the Park–Miller words, so that the first outputs are
	// scrambled. Go 1 compatibility freezes the stream of
	// rand.NewSource(1), so init recovers the table from it.
	srcCooked [srcLen]int64
	// seedPow[3i+c] = 48271^(seedSkip+1+3i+c) mod (2³¹−1): the powers
	// giving the three Park–Miller values that make state word i.
	seedPow [3 * srcLen]uint64
)

func init() {
	p := uint64(1)
	for k := 1; k <= seedSkip; k++ {
		p = mulMod31(p, 48271)
	}
	for k := range seedPow {
		p = mulMod31(p, 48271)
		seedPow[k] = p
	}

	// The k-th Uint64 of a freshly seeded source is o_k = o_{k-607} +
	// o_{k-273}, where o_m for m ∈ [-607, -1] is the seeded state word
	// vec[(333-m) mod 607] (tap and feed walk the state downwards from 0
	// and 334). Outputs o_0…o_606 therefore give every state word back:
	// o_m = o_{m+607} − o_{m+334}, solved from m = −1 down so that the
	// right-hand side is known. XORing the seed-1 Park–Miller words out
	// of the state leaves the cooked table.
	ref := rand.NewSource(1).(rand.Source64)
	var out [2 * srcLen]uint64 // out[srcLen+m] = o_m
	for k := 0; k < srcLen; k++ {
		out[srcLen+k] = ref.Uint64()
	}
	for m := -1; m >= -srcLen; m-- {
		out[srcLen+m] = out[srcLen+m+srcLen] - out[srcLen+m+srcLen-srcTap]
	}
	var s Source
	s.Seed(1) // srcCooked is still zero: vec holds the bare seed-1 words
	for m := -srcLen; m < 0; m++ {
		i := (srcLen - srcTap - 1 - m) % srcLen
		srcCooked[i] = int64(out[srcLen+m]) ^ s.vec[i]
	}
}

// mulMod31 returns x·y mod (2³¹−1) for x, y < 2³¹ without dividing:
// 2³¹ ≡ 1, so the high bits fold onto the low ones.
func mulMod31(x, y uint64) uint64 {
	v := x * y
	v = v&int32max + v>>31
	v = v&int32max + v>>31
	if v >= int32max {
		v -= int32max
	}
	return v
}

// Seed initializes the generator to the state rand.NewSource(seed) starts
// from. Like math/rand it reduces seed modulo 2³¹−1 into [0, 2³¹−1) and
// replaces 0 with a fixed non-zero seed.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		pw := seedPow[3*i : 3*i+3 : 3*i+3]
		u := int64(mulMod31(x, pw[0]))<<40 ^ int64(mulMod31(x, pw[1]))<<20 ^ int64(mulMod31(x, pw[2]))
		s.vec[i] = u ^ srcCooked[i]
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Shuffler draws uniformly random permutations of a fixed length n from a
// Source, each identical to the one math/rand's (*Rand).Perm(n) draws from
// the same generator state, and leaves the source in the same state Perm
// leaves it. It is the inside-out Fisher–Yates of Perm with the draw
// j = Intn(i+1) computed without a division: a table indexed by i holds
// Int31n's rejection threshold for bound i+1, so rejected draws are
// consumed exactly as Int31n consumes them, and the Lemire–Kaser–Kurz
// fastmod multiplier of i+1 ("Faster remainder by direct computation",
// 2019), which turns the remainder into two multiplications. Powers of two
// need no special case: their threshold rejects nothing, and the
// remainder equals Int31n's mask.
type Shuffler struct {
	steps []shuffleStep
}

type shuffleStep struct {
	max uint32 // largest accepted 31-bit draw for bound n: 2³¹−1 − (2³¹ mod n)
	mul uint64 // fastmod multiplier ⌊(2⁶⁴−1)/n⌋ + 1 (wraps to 0 for n = 1)
}

// NewShuffler returns a Shuffler for permutations of n < 2³¹ elements.
func NewShuffler(n int) *Shuffler {
	if n < 0 || n > int32max {
		panic("perm: shuffle length out of range")
	}
	steps := make([]shuffleStep, n)
	for i := range steps {
		steps[i] = newShuffleStep(uint32(i + 1))
	}
	return &Shuffler{steps: steps}
}

func newShuffleStep(n uint32) shuffleStep {
	return shuffleStep{max: int32max - (1<<31)%n, mul: ^uint64(0)/uint64(n) + 1}
}

// Into fills buf (length ≥ n) with a random permutation of n elements
// drawn from src and returns buf[:n].
func (sh *Shuffler) Into(src *Source, buf []int32) []int32 {
	steps := sh.steps
	m := buf[:len(steps)]
	vec := &src.vec
	tap, feed := src.tap, src.feed
	for i, st := range steps {
		var v uint32
		for {
			tap--
			if tap < 0 {
				tap += srcLen
			}
			feed--
			if feed < 0 {
				feed += srcLen
			}
			x := vec[feed] + vec[tap]
			vec[feed] = x
			// Int31: the top 31 bits of the 63-bit Int63.
			if v = uint32(uint64(x)>>32) & int32max; v <= st.max {
				break
			}
		}
		j, _ := bits.Mul64(st.mul*uint64(v), uint64(i+1))
		m[i] = m[j]
		m[j] = int32(i)
	}
	src.tap, src.feed = tap, feed
	return m
}

package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refUnion is the scalar union, kept as the oracle.
func refUnion(dst, src []uint64) int {
	added := 0
	for i, w := range src {
		if neu := w &^ dst[i]; neu != 0 {
			added += bits.OnesCount64(neu)
			dst[i] |= neu
		}
	}
	return added
}

func TestUnionWordsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 100, 1024, 1025} {
		for trial := 0; trial < 20; trial++ {
			dst := make([]uint64, n)
			src := make([]uint64, n)
			for i := range dst {
				// Mix dense, sparse, and all-shared words so words that
				// add bits and words that add none both occur.
				switch rng.Intn(4) {
				case 0:
					dst[i] = rng.Uint64()
					src[i] = rng.Uint64()
				case 1:
					dst[i] = ^uint64(0)
					src[i] = rng.Uint64()
				case 2:
					src[i] = dst[i] // nothing new
				case 3:
					src[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
			}
			want := append([]uint64(nil), dst...)
			wantAdded := refUnion(want, src)

			got := append([]uint64(nil), dst...)
			gotAdded := unionWords(got, src)
			if gotAdded != wantAdded {
				t.Fatalf("n=%d: unionWords added %d, scalar added %d", n, gotAdded, wantAdded)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d: word %d differs: %x vs %x", n, i, got[i], want[i])
				}
			}

			or := append([]uint64(nil), dst...)
			orWords(or, src)
			for i := range or {
				if or[i] != want[i] {
					t.Fatalf("n=%d: orWords word %d differs: %x vs %x", n, i, or[i], want[i])
				}
			}
		}
	}
}

func TestUnionDirtyStampsChangedWords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{65, 512, 1000} {
		v := NewVersioned(n)
		other := New(n)
		for trial := 0; trial < 10; trial++ {
			for i := 0; i < 8; i++ {
				other.Set(rng.Intn(n))
			}
			ref := v.set.Clone()
			wantAdded := refUnion(ref.words, other.words)
			changed := map[int]bool{}
			for i := range ref.words {
				if ref.words[i] != v.set.words[i] {
					changed[i] = true
				}
			}
			before := len(v.dirty)
			got := v.UnionWith(other)
			if got != wantAdded {
				t.Fatalf("n=%d trial=%d: UnionWith added %d, want %d", n, trial, got, wantAdded)
			}
			if !v.set.Equal(ref) {
				t.Fatalf("n=%d trial=%d: contents diverge from scalar oracle", n, trial)
			}
			// Every word that changed this merge must be stamped dirty.
			dirtySet := map[int]bool{}
			for _, w := range v.dirty {
				dirtySet[int(w)] = true
			}
			for w := range changed {
				if !dirtySet[w] {
					t.Fatalf("n=%d trial=%d: changed word %d not stamped dirty", n, trial, w)
				}
			}
			if len(v.dirty) < before {
				t.Fatalf("dirty list shrank")
			}
			if trial%3 == 2 {
				v.Snapshot() // drain dirty through the normal path
			}
		}
	}
}

// TestOrWordStampsOnce ORs words one at a time: OrWord must return exactly
// the new bits, and a Versioned must stamp a changed word dirty once per
// snapshot however often it changes, and never stamp an unchanged one.
func TestOrWordStampsOnce(t *testing.T) {
	v := NewVersioned(200) // words 0–3, the last one partial
	if neu := v.OrWord(1, 0b1010); neu != 0b1010 {
		t.Fatalf("first OR returned %b, want 1010", neu)
	}
	if neu := v.OrWord(1, 0b0110); neu != 0b0100 {
		t.Fatalf("second OR returned %b, want 100", neu)
	}
	if neu := v.OrWord(1, 0b0010); neu != 0 {
		t.Fatalf("repeated OR returned %b, want 0", neu)
	}
	if neu := v.OrWord(3, 1<<7); neu != 1<<7 {
		t.Fatalf("OR into the partial word returned %b", neu)
	}
	if len(v.dirty) != 2 || v.dirty[0] != 1 || v.dirty[1] != 3 {
		t.Fatalf("dirty = %v, want [1 3]", v.dirty)
	}
	for _, i := range []int{65, 66, 67, 64*3 + 7} {
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	s := v.Snapshot()
	if d := s.Delta(); len(d) != 2 || d[0] != (DeltaWord{1, 0b1110}) || d[1] != (DeltaWord{3, 1 << 7}) {
		t.Fatalf("snapshot delta = %v", d)
	}
	if v.OrWord(1, 0b1110) != 0 || len(v.dirty) != 0 {
		t.Fatal("an OR that sets nothing stamped its word dirty")
	}
}

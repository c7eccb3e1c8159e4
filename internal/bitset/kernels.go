package bitset

import "math/bits"

// Word-level merge kernels: the loops every knowledge merge bottoms out
// in, the counting union (UnionWith — the monotone merge with
// undone-count maintenance) and the count-free accumulate (OrWith —
// batch builders folding snapshots into scratch). They are plain word
// loops: 8-word blocks that skip all-known runs measured no faster on
// the steady-state benchmarks or the end-to-end workloads.

// unionWords ORs src into dst and returns the number of bits newly set.
// Both slices must have the same length.
func unionWords(dst, src []uint64) int {
	added := 0
	dst = dst[:len(src)]
	for i, w := range src {
		if neu := w &^ dst[i]; neu != 0 {
			added += bits.OnesCount64(neu)
			dst[i] |= neu
		}
	}
	return added
}

// orWords ORs src into dst without counting. Both slices must have the
// same length.
func orWords(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] |= w
	}
}

// unionDirty ORs src into v's words, stamping every changed word dirty,
// and returns the number of bits newly set. It is the Versioned sibling
// of unionWords.
func (v *Versioned) unionDirty(src []uint64) int {
	dst := v.set.words[:len(src)]
	added := 0
	for i, w := range src {
		if neu := w &^ dst[i]; neu != 0 {
			added += bits.OnesCount64(neu)
			dst[i] |= neu
			v.touch(i)
		}
	}
	return added
}

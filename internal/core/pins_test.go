package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestPaRanBuildPins pins what PaRan1 and PaRan2 draw at build time to
// digests recorded from the math/rand-built machines: the sha256 of every
// PaRan1 permutation entry (4-byte little-endian, processors in order) and
// of each PaRan2 selector's first 8 Int63 draws (8-byte little-endian).
// A faster source or shuffle kernel must leave both byte-identical.
func TestPaRanBuildPins(t *testing.T) {
	for _, c := range []struct {
		p, tasks   int
		seed       int64
		ran1, ran2 string
	}{
		{1024, 1 << 16, 17,
			"85c5bb2a952f385ae8be3130988511dae2d0a2d58fcae6e688f29ac97ee43ac8",
			"1d189477044ea25a9e0b8422ff69d16a3f6eedb7027f5c64281ea17af4ed6cdd"},
		{257, 5000, -3,
			"269ee984b4f4481a298617dff5872159ac164a314755336c503656a6036c10e6",
			"500ea766b089fe8996a050471c1442ef04dab7bcd3eefb724a89c83a68344ee4"},
	} {
		h := sha256.New()
		var b [8]byte
		for _, m := range NewPaRan1(c.p, c.tasks, c.seed) {
			for _, v := range m.(*PA).selector.(*permSelector).order {
				binary.LittleEndian.PutUint32(b[:4], uint32(v))
				h.Write(b[:4])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.ran1 {
			t.Errorf("p=%d t=%d seed=%d: PaRan1 permutation digest %s, want %s", c.p, c.tasks, c.seed, got, c.ran1)
		}
		h.Reset()
		for _, m := range NewPaRan2(c.p, c.tasks, c.seed) {
			r := m.(*PA).selector.(*randSelector).rng
			for k := 0; k < 8; k++ {
				binary.LittleEndian.PutUint64(b[:], uint64(r.Int63()))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.ran2 {
			t.Errorf("p=%d t=%d seed=%d: PaRan2 first-draw digest %s, want %s", c.p, c.tasks, c.seed, got, c.ran2)
		}
	}
}

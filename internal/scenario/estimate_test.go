package scenario

import "testing"

// TestEstimateAccountsPermutationBacking pins the PA-family permutation
// term of the memory pre-estimation: PaRan1 (and PaDet) at p = 65536
// materialize a shared p·jobs·4-byte schedule backing — 16 GiB — and a
// -maxmem admission below that must fail fast instead of OOMing
// mid-sweep. The permutation-free algorithms must NOT be charged for it,
// or affordable DA sweeps at the same shape would be vetoed.
func TestEstimateAccountsPermutationBacking(t *testing.T) {
	const gib = int64(1) << 30
	shape := Scenario{P: 65536, T: 1 << 20, D: 8}

	pa := shape
	pa.Algorithm = AlgoPaRan1
	if got := EstimateCellBytes(pa); got < 16*gib {
		t.Fatalf("EstimateCellBytes(PaRan1, p=65536, t=2^20) = %d, want ≥ 16 GiB (%d)", got, 16*gib)
	}
	det := shape
	det.Algorithm = AlgoPaDet
	if got := EstimateCellBytes(det); got < 16*gib {
		t.Fatalf("EstimateCellBytes(PaDet, p=65536, t=2^20) = %d, want ≥ 16 GiB", got)
	}

	for _, algo := range []string{AlgoDA, AlgoPaRan2, AlgoAllToAll, AlgoObliDo} {
		sc := shape
		sc.Algorithm = algo
		if got := EstimateCellBytes(sc); got >= 16*gib {
			t.Errorf("EstimateCellBytes(%s, p=65536, t=2^20) = %d: charged the permutation backing it does not allocate", algo, got)
		}
	}

	// The sweep-level admission sees the worst cell: a grid mixing DA and
	// PaRan1 at this shape must estimate ≥ 16 GiB per worker.
	sweep := EstimateSweepBytes(SweepConfig{
		Algos:   []string{AlgoDA, AlgoPaRan1},
		Ps:      []int{65536},
		Ts:      []int{1 << 20},
		Ds:      []int64{8},
		Workers: 1,
	})
	if sweep < 16*gib {
		t.Fatalf("EstimateSweepBytes = %d, want ≥ 16 GiB", sweep)
	}
}

// TestEstimateChargesPaDetSearchLists pins PaDet's extra charge: its
// schedule search holds the best list and the current candidate, two
// p·jobs·8-byte []int lists, before the int32 copy its machines walk, so
// at the same shape it is charged exactly those two lists more than
// PaRan1's single int32 permutation backing.
func TestEstimateChargesPaDetSearchLists(t *testing.T) {
	for _, shape := range []Scenario{{P: 128, T: 1 << 14, D: 8}, {P: 4096, T: 1024, D: 1}} {
		ran1, det := shape, shape
		ran1.Algorithm, det.Algorithm = AlgoPaRan1, AlgoPaDet
		jobs := int64(min(shape.P, shape.T))
		if got, want := EstimateCellBytes(det)-EstimateCellBytes(ran1), 2*int64(shape.P)*jobs*8; got != want {
			t.Errorf("p=%d t=%d: PaDet charged %d bytes over PaRan1, want two search lists of %d", shape.P, shape.T, got, want)
		}
	}
}

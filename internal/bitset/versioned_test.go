package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveReceiver mirrors a receiver with the semantics the versioned plane
// must preserve: every delivered snapshot means the
// sender's full set, merged by a plain full-width union.
type naiveReceiver struct {
	set     *Set
	scratch *Set
}

func (r *naiveReceiver) merge(s *Snapshot) int {
	s.Materialize(r.scratch)
	return r.set.UnionWith(r.scratch)
}

// TestQuickVersionedMergeEqualsNaiveUnion is the knowledge-plane
// soundness property: for random mutation/snapshot schedules delivered
// with reordering, drops, and the version gaps those induce (plus forced
// rebases), Versioned.Merge leaves the receiver
// set-equal to the naive full-bitset union after EVERY delivery — and
// with the same newly-added-bit count, which PA's remain accounting
// depends on.
func TestQuickVersionedMergeEqualsNaiveUnion(t *testing.T) {
	f := func(seed int64, sendersRaw, bitsRaw, roundsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nSenders := 1 + int(sendersRaw%4)
		n := 1 + int(bitsRaw)%200 // spans 1..200 bits: 1–4 words, tail masks
		rounds := 20 + int(roundsRaw)%100

		senders := make([]*Versioned, nSenders)
		for i := range senders {
			senders[i] = NewVersioned(n)
		}
		recv := NewVersioned(n)
		naive := naiveReceiver{set: New(n), scratch: New(n)}

		type pending struct {
			from int
			s    *Snapshot
		}
		var queue []pending

		for r := 0; r < rounds; r++ {
			// A random sender learns a few random bits and snapshots.
			from := rng.Intn(nSenders)
			for k := rng.Intn(4); k >= 0; k-- {
				senders[from].Set(rng.Intn(n))
			}
			queue = append(queue, pending{from, senders[from].Snapshot()})

			// Deliver a random queued snapshot (not necessarily the
			// oldest: reordering) or drop one (gaps), sometimes both.
			for pass := 0; pass < 2 && len(queue) > 0; pass++ {
				i := rng.Intn(len(queue))
				d := queue[i]
				queue = append(queue[:i], queue[i+1:]...)
				if pass == 1 || rng.Intn(4) == 0 {
					// Dropped: the receiver never sees this version.
					senders[d.from].Recycle(d.s)
					continue
				}
				got := recv.Merge(d.s)
				want := naive.merge(d.s)
				senders[d.from].Recycle(d.s)
				if got != want || !recv.Bits().Equal(naive.set) {
					t.Logf("seed=%d round=%d from=%d: added %d want %d\nversioned %v\nnaive     %v",
						seed, r, d.from, got, want, recv.Bits(), naive.set)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStaleCursorIsSafe pins the invariant combined-cache builds rely
// on: a receiver that folds each snapshot in through AccumulateInto from
// an arbitrarily stale watermark — any version at or below the newest it
// already holds from the sender — still converges to the naive union,
// whether it applies the accumulation by its index list or full-width.
// Staleness costs redundant merging, never a missed word.
func TestQuickStaleCursorIsSafe(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(bitsRaw)%150
		sender := NewVersioned(n)
		recv := NewVersioned(n)
		naive := naiveReceiver{set: New(n), scratch: New(n)}
		var held int64 // newest sender version recv holds
		for r := 0; r < 40; r++ {
			for k := rng.Intn(3); k >= 0; k-- {
				sender.Set(rng.Intn(n))
			}
			s := sender.Snapshot()
			if rng.Intn(3) != 0 {
				acc := New(n)
				idxs, dense := s.AccumulateInto(acc, rng.Int63n(held+1), nil)
				if dense {
					recv.UnionWith(acc)
				} else {
					recv.MergeWords(acc, idxs)
				}
				naive.merge(s)
				held = s.Ver()
				if !recv.Bits().Equal(naive.set) {
					return false
				}
			}
			sender.Recycle(s)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVersionedSnapshotImmutable pins snapshot immutability: a snapshot
// taken, then followed by further mutations and snapshots of the owner,
// still materializes exactly the owner's contents at its version.
func TestVersionedSnapshotImmutable(t *testing.T) {
	v := NewVersioned(130)
	v.Set(1)
	v.Set(64)
	s1 := v.Snapshot()
	want1 := v.Bits().Clone()

	v.Set(2)
	v.Set(129)
	s2 := v.Snapshot()
	want2 := v.Bits().Clone()
	for i := 0; i < 60; i++ { // force rebases past the threshold
		v.Set(i)
		v.Snapshot()
	}

	got := New(130)
	s1.Materialize(got)
	if !got.Equal(want1) {
		t.Fatalf("s1 materialized %v, want %v", got, want1)
	}
	s2.Materialize(got)
	if !got.Equal(want2) {
		t.Fatalf("s2 materialized %v, want %v", got, want2)
	}
}

// TestVersionedRecyclePoolsBuffers pins the allocation loop: snapshots
// recycled after a rebase retire their epoch, and the pooled buffers are
// reused by later epochs (outstanding count returns to the live set).
func TestVersionedRecyclePoolsBuffers(t *testing.T) {
	v := NewVersioned(64)
	var snaps []*Snapshot
	for i := 0; i < 200; i++ {
		v.Set(i % 64)
		snaps = append(snaps, v.Snapshot())
	}
	if got := v.OutstandingSnapshots(); got != 200 {
		t.Fatalf("outstanding = %d, want 200", got)
	}
	for _, s := range snaps {
		v.Recycle(s)
	}
	if got := v.OutstandingSnapshots(); got != 0 {
		t.Fatalf("outstanding after recycle = %d, want 0", got)
	}
	if len(v.old) != 0 {
		t.Fatalf("retired epochs not reclaimed: %d", len(v.old))
	}
	if len(v.freeSets) == 0 || len(v.freeSegs) == 0 || len(v.freeSnaps) == 0 {
		t.Fatalf("pools empty after recycling: sets=%d segs=%d snaps=%d",
			len(v.freeSets), len(v.freeSegs), len(v.freeSnaps))
	}
}

// TestVersionedResetRestartsVersioning pins Reset: version 0, empty set,
// and snapshots from the fresh run merge correctly into fresh receivers.
func TestVersionedResetRestartsVersioning(t *testing.T) {
	v := NewVersioned(70)
	v.Set(3)
	s := v.Snapshot()
	v.Recycle(s)
	v.Reset()
	if v.Ver() != 0 || v.Count() != 0 {
		t.Fatalf("after Reset: ver=%d count=%d", v.Ver(), v.Count())
	}
	v.Set(65)
	s = v.Snapshot()
	if s.Ver() != 1 {
		t.Fatalf("first post-reset snapshot ver = %d, want 1", s.Ver())
	}
	recv := NewVersioned(70)
	if added := recv.Merge(s); added != 1 || !recv.Get(65) || recv.Get(3) {
		t.Fatalf("post-reset merge: added=%d bits=%v", added, recv.Bits())
	}
}

// TestCloneIsIndependent pins Versioned.Clone: the clone's snapshots
// carry the full state (its fresh epoch over-approximates safely) and
// mutating either side does not leak into the other.
func TestCloneIsIndependent(t *testing.T) {
	v := NewVersioned(64)
	v.Set(1)
	v.Snapshot()
	v.Set(2) // pending, not yet snapshot
	c := v.Clone()
	if c.Ver() != v.Ver() {
		t.Fatalf("clone ver %d != %d", c.Ver(), v.Ver())
	}
	v.Set(3)
	c.Set(4)
	if v.Get(4) || c.Get(3) {
		t.Fatal("clone shares storage with original")
	}
	s := c.Snapshot()
	recv := NewVersioned(64)
	recv.Merge(s)
	for _, want := range []int{1, 2, 4} {
		if !recv.Get(want) {
			t.Fatalf("clone snapshot lost bit %d: %v", want, recv.Bits())
		}
	}
}

package bitset

import "testing"

// TestRejoinKeepsVersionsMonotone asserts the core crash-restart
// invariant: Rejoin clears the set but never lowers the version counter,
// so post-rejoin snapshots always carry versions above everything the
// old incarnation published.
func TestRejoinKeepsVersionsMonotone(t *testing.T) {
	v := NewVersioned(200)
	for i := 0; i < 100; i++ {
		v.Set(i)
		if i%10 == 0 {
			v.Recycle(v.Snapshot())
		}
	}
	before := v.Ver()
	v.Rejoin()
	if v.Ver() != before {
		t.Fatalf("Rejoin changed the version: %d -> %d", before, v.Ver())
	}
	if v.Count() != 0 {
		t.Fatalf("Rejoin left %d bits set", v.Count())
	}
	v.Set(7)
	s := v.Snapshot()
	if s.Ver() != before+1 {
		t.Fatalf("post-rejoin snapshot version %d, want %d", s.Ver(), before+1)
	}
	v.Recycle(s)
}

// TestRejoinForcesFullSnapshot asserts the rebase-on-revive rule: the
// first snapshot after a Rejoin has no delta chain, so its base alone
// holds the new incarnation's knowledge and no pre-crash segment is
// reachable from it.
func TestRejoinForcesFullSnapshot(t *testing.T) {
	v := NewVersioned(128)
	v.Set(3)
	v.Recycle(v.Snapshot())
	v.Set(9)
	s1 := v.Snapshot() // in-sequence: one delta segment on the base
	if s1.ChainLen() == 0 {
		t.Fatal("pre-rejoin in-sequence snapshot unexpectedly has no chain")
	}
	v.Recycle(s1)

	v.Rejoin()
	v.Set(42)
	s2 := v.Snapshot()
	if n := s2.ChainLen(); n != 0 {
		t.Fatalf("first post-rejoin snapshot has a %d-segment chain; want a fresh rebase", n)
	}
	if b := s2.Base(); b == nil || !b.Get(42) || b.Get(3) || b.Get(9) {
		t.Fatalf("post-rejoin snapshot base should hold exactly the new knowledge; base=%v", b)
	}
	v.Recycle(s2)

	// Also with zero post-rejoin mutations: the snapshot must still be a
	// full (empty) rebase, not a delta against pre-crash state.
	v2 := NewVersioned(64)
	v2.Set(1)
	v2.Recycle(v2.Snapshot())
	v2.Rejoin()
	s3 := v2.Snapshot()
	if n := s3.ChainLen(); n != 0 {
		t.Fatalf("empty post-rejoin snapshot has a %d-segment chain", n)
	}
	got := New(64)
	s3.Materialize(got)
	if got.Count() != 0 {
		t.Fatalf("empty post-rejoin snapshot materializes %d bits", got.Count())
	}
	v2.Recycle(s3)
}

// TestRejoinPreservesInFlightSnapshots asserts pre-crash snapshots stay
// valid after the owner rejoins: they still materialize the pre-crash
// contents and can be recycled without corrupting the owner's pools.
func TestRejoinPreservesInFlightSnapshots(t *testing.T) {
	v := NewVersioned(96)
	for i := 0; i < 40; i++ {
		v.Set(i)
	}
	inflight := v.Snapshot() // still outstanding across the rejoin
	v.Rejoin()
	v.Set(77)
	post := v.Snapshot()

	got := New(96)
	inflight.Materialize(got)
	for i := 0; i < 40; i++ {
		if !got.Get(i) {
			t.Fatalf("pre-crash snapshot lost bit %d after Rejoin", i)
		}
	}
	if got.Get(77) {
		t.Fatal("pre-crash snapshot sees post-rejoin knowledge")
	}
	v.Recycle(inflight)
	v.Recycle(post)
	if n := v.OutstandingSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still outstanding after recycling all", n)
	}
}

// TestMergeAcrossRejoin asserts merging across a sender's rejoin is safe:
// a receiver that merged pre-crash versions merges the post-rejoin
// snapshot whole and ends up with the union of both incarnations'
// knowledge (monotone knowledge is never retracted), and a pre-crash
// snapshot delivered late adds nothing.
func TestMergeAcrossRejoin(t *testing.T) {
	sender := NewVersioned(160)
	dst := NewVersioned(160)

	for i := 0; i < 30; i++ {
		sender.Set(i)
	}
	s1 := sender.Snapshot()
	if n := dst.Merge(s1); n != 30 {
		t.Fatalf("pre-crash merge added %d bits, want 30", n)
	}

	sender.Rejoin()
	for i := 100; i < 110; i++ {
		sender.Set(i)
	}
	s2 := sender.Snapshot()
	if s2.Ver() <= s1.Ver() {
		t.Fatalf("post-rejoin version %d not above pre-crash version %d", s2.Ver(), s1.Ver())
	}
	if s2.Base() == nil || s2.BaseVer() <= s1.Ver() {
		t.Fatalf("post-rejoin snapshot has no fresh base (baseVer %d)", s2.BaseVer())
	}
	if n := dst.Merge(s2); n != 10 {
		t.Fatalf("post-rejoin merge added %d bits, want 10", n)
	}
	if n := dst.Merge(s1); n != 0 {
		t.Fatalf("late pre-crash merge added %d bits, want 0", n)
	}
	sender.Recycle(s1)
	sender.Recycle(s2)
	for i := 0; i < 30; i++ {
		if !dst.Get(i) {
			t.Fatalf("receiver lost pre-crash bit %d", i)
		}
	}
	for i := 100; i < 110; i++ {
		if !dst.Get(i) {
			t.Fatalf("receiver missed post-rejoin bit %d", i)
		}
	}
}

// TestRejoinRepeated asserts back-to-back rejoins (a processor crashing
// and restarting several times) stay consistent and keep pooling.
func TestRejoinRepeated(t *testing.T) {
	v := NewVersioned(64)
	var last int64
	for round := 0; round < 5; round++ {
		v.Set(round * 3)
		s := v.Snapshot()
		if s.Ver() <= last {
			t.Fatalf("round %d: version %d not above %d", round, s.Ver(), last)
		}
		last = s.Ver()
		if n := s.ChainLen(); n != 0 && round > 0 {
			// Round 0 precedes any rejoin and may legitimately have a chain.
			t.Fatalf("round %d: post-rejoin snapshot has a %d-segment chain", round, n)
		}
		v.Recycle(s)
		v.Rejoin()
		if v.Count() != 0 {
			t.Fatalf("round %d: rejoin left bits", round)
		}
	}
}

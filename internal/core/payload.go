package core

import (
	"doall/internal/bitset"
	"doall/internal/sim"
)

// The multicast payloads are shared across recipients without copying,
// so they must satisfy the engine's payload contract.
var (
	_ sim.Payload = TreeSnapshot{}
	_ sim.Payload = DoneSet{}

	_ sim.PayloadSizer = (*DA)(nil)
	_ sim.PayloadSizer = (*PA)(nil)
)

// TreeSnapshot is the DA multicast payload: a versioned snapshot of the
// sender's progress-tree bits. The payload *means* the sender's full tree
// at the snapshot's version; it is *represented* as an immutable epoch
// base plus a delta chain (bitset.Snapshot), so receivers merge only the
// words that changed since the version they last saw from the sender.
// Receivers must treat it as immutable (it is shared across the
// recipients of one multicast).
type TreeSnapshot struct {
	S *bitset.Snapshot
}

// WireSize implements sim.Payload: see snapshotBytes.
func (s TreeSnapshot) WireSize() int { return snapshotBytes(s.S) }

// DoneSet is the PA multicast payload: a versioned snapshot of the
// sender's known-done job set, represented like TreeSnapshot.
// Immutable once sent.
type DoneSet struct {
	S *bitset.Snapshot
}

// WireSize implements sim.Payload: see snapshotBytes.
func (s DoneSet) WireSize() int { return snapshotBytes(s.S) }

// snapshotBytes is the byte count of one copy of a knowledge payload: the
// sender's whole n-bit set, 8·⌈n/64⌉ bytes. Every multicast of the
// paper's algorithms carries the sender's whole knowledge, and that is
// the size any receiver can decode, whatever it last heard from the
// sender; the delta chain is how the simulator represents it, not what
// it charges.
func snapshotBytes(s *bitset.Snapshot) int { return 8 * ((s.Len() + 63) / 64) }

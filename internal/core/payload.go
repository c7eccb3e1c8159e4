package core

import (
	"doall/internal/bitset"
	"doall/internal/sim"
	"doall/internal/wire"
)

// Sizer is the wire-size-aware payload interface consumed by the
// simulation engine: the engine queries WireSize once per multicast for
// byte accounting (message *count* remains the paper's complexity
// measure) and shares the payload value, uncopied, with every recipient.
// It is an alias of sim.Payload so core payload types satisfy the engine
// contract by construction; implementations must be immutable once sent.
type Sizer = sim.Payload

// The multicast payloads are shared across recipients without copying,
// so they must satisfy the engine's payload contract.
var (
	_ sim.Payload = TreeSnapshot{}
	_ sim.Payload = DoneSet{}

	_ sim.PayloadSizer = (*DA)(nil)
	_ sim.PayloadSizer = (*PA)(nil)
)

// PayloadWireSize implements sim.PayloadSizer: the engine asks the
// sending machine to size its own payload so byte accounting needs no
// payload.(sim.Payload) assertion on the hot path — the concrete type
// check below compiles to a type-descriptor compare with no runtime
// itab-cache involvement (whose lazy random population would otherwise
// be a rare steady-state allocation).
func (m *DA) PayloadWireSize(payload any) int {
	if s, ok := payload.(TreeSnapshot); ok {
		return s.WireSize()
	}
	return 0
}

// PayloadWireSize implements sim.PayloadSizer; see DA.PayloadWireSize.
func (m *PA) PayloadWireSize(payload any) int {
	if s, ok := payload.(DoneSet); ok {
		return s.WireSize()
	}
	return 0
}

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

// WireSize implements Sizer: the sparse delta encoding for in-sequence
// snapshots, the full encoding for rebased ones.
func (s TreeSnapshot) WireSize() int {
	return snapshotWireSize(wire.KindTree, wire.KindTreeDelta, s.S)
}

// Encode serializes the snapshot with the wire format.
func (s TreeSnapshot) Encode() []byte {
	return snapshotEncode(wire.KindTree, wire.KindTreeDelta, s.S)
}

// DoneSet is the PA multicast payload: a versioned snapshot of the
// sender's known-done job set, represented like TreeSnapshot.
// Immutable once sent.
type DoneSet struct {
	S *bitset.Snapshot
}

// WireSize implements Sizer.
func (s DoneSet) WireSize() int {
	return snapshotWireSize(wire.KindDoneSet, wire.KindDoneSetDelta, s.S)
}

// Encode serializes the done-set with the wire format.
func (s DoneSet) Encode() []byte {
	return snapshotEncode(wire.KindDoneSet, wire.KindDoneSetDelta, s.S)
}

// snapshotWireSize returns the wire size of a versioned snapshot without
// allocating: the sparse delta message when the snapshot has a chain, the
// full (old-kind) snapshot when it is a fresh rebase — the on-wire form
// of the full-merge fallback.
func snapshotWireSize(full, delta wire.Kind, s *bitset.Snapshot) int {
	if words, ok := s.WireDelta(); ok {
		return wire.SizeDelta(delta, s.Len(), s.Ver(), s.BaseVer(), words)
	}
	if b := s.Base(); b != nil {
		return wire.Size(full, b)
	}
	return wire.SizeEmpty(full, s.Len())
}

// snapshotEncode is the allocation-tolerant sibling of snapshotWireSize.
func snapshotEncode(full, delta wire.Kind, s *bitset.Snapshot) []byte {
	if words, ok := s.WireDelta(); ok {
		return wire.EncodeDelta(delta, s.Len(), s.Ver(), s.BaseVer(), words)
	}
	if b := s.Base(); b != nil {
		return wire.Encode(full, b)
	}
	return wire.Encode(full, bitset.New(s.Len()))
}

// knowledgeCombined is the combined knowledge cache one consumer
// publishes in a sim.Batch (Batch.Combined): the union of the new words
// of every snapshot in the batch, accumulated once and merged by every
// later consumer with a single union instead of one merge per sender.
// idxs lists the touched word indices (repeats allowed) for the sparse
// consume path; dense marks accumulations that folded in a full epoch
// base, which must be consumed full-width. Published values are immutable
// until the engine hands them back to the builder for pooling.
type knowledgeCombined struct {
	n     int // bit capacity (shape key: consumers with another n ignore it)
	bits  *bitset.Set
	idxs  []int32
	dense bool
}

// combinedPool pools knowledgeCombined accumulators inside one machine.
type combinedPool struct {
	free []*knowledgeCombined
}

// get returns a cleared accumulator for n bits.
func (p *combinedPool) get(n int) *knowledgeCombined {
	for len(p.free) > 0 {
		kc := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if kc.n == n {
			return kc
		}
		// Wrong shape (machine reused across shapes): drop it.
	}
	return &knowledgeCombined{n: n, bits: bitset.New(n)}
}

// put clears and pools an accumulator: sparse accumulations zero only
// their touched words, dense ones the whole set.
func (p *combinedPool) put(kc *knowledgeCombined) {
	if kc.dense {
		kc.bits.ClearAll()
	} else {
		words := kc.bits.Words()
		for _, i := range kc.idxs {
			words[i] = 0
		}
	}
	kc.idxs = kc.idxs[:0]
	kc.dense = false
	p.free = append(p.free, kc)
}

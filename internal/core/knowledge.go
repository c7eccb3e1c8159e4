package core

import (
	"doall/internal/bitset"
	"doall/internal/sim"
)

// knowledge is the knowledge plane PA and DA share, embedded in both: the
// versioned set a machine snapshots into its multicasts and merges
// deliveries into, and the combined batch caches it builds for the
// engine. PA's payloads are DoneSets and DA's are TreeSnapshots; a plane
// merges and combines only its own kind at its own length. Both run the
// same merges, which count new bits and record which words a step's
// merges may have changed: touched holds each applied sparse cache's
// index list, by reference (a published cache is immutable until its
// batch retires, after the step), and dense marks a step with a
// full-width cache or a whole-snapshot merge, which may have changed any
// word. DA closes its progress tree over those words; PA ignores them.
type knowledge struct {
	pid     int
	trees   bool // TreeSnapshot payloads (DA); DoneSet payloads otherwise (PA)
	vers    *bitset.Versioned
	touched [][]int32
	dense   bool
	free    []*knowledgeCombined // pooled caches this machine built
}

// knowledgeCombined is the combined knowledge cache the engine publishes
// in a sim.Batch (Batch.Combined): the union of what the batch's
// snapshots add to the senders' build watermarks, accumulated once and
// applied by every consumer with a single union instead of one merge per
// sender. idxs lists the touched word indices (repeats allowed) for the
// sparse apply; dense marks accumulations that folded in a full epoch
// base or touched most words, applied full-width. Published values are
// immutable until the engine hands them back to the builder for pooling.
type knowledgeCombined struct {
	trees bool // built from TreeSnapshots; only a plane of the same kind and length applies it
	bits  *bitset.Set
	idxs  []int32
	dense bool
}

// snap returns payload's snapshot when the payload is this plane's kind
// and length, nil otherwise. Concrete type checks compile to type-
// descriptor compares with no runtime itab cache behind them, whose lazy
// population would be a rare steady-state allocation (see the facet note
// on sim.Engine).
func (k *knowledge) snap(payload any) *bitset.Snapshot {
	var s *bitset.Snapshot
	switch v := payload.(type) {
	case DoneSet:
		if !k.trees {
			s = v.S
		}
	case TreeSnapshot:
		if k.trees {
			s = v.S
		}
	}
	if s == nil || s.Len() != k.vers.Len() {
		return nil
	}
	return s
}

// merge folds one step's deliveries into the set: each batch through its
// published cache when the cache is this plane's, multicast by multicast
// otherwise (skipping the machine's own), then the per-recipient tail. It
// returns the number of bits newly set, and leaves touched and dense
// describing the words the merges may have changed. Merges are monotone
// unions, so the order differs from Step's inbox order unobservably.
func (k *knowledge) merge(batches []*sim.Batch, tail []sim.Delivery) int {
	k.touched = k.touched[:0]
	k.dense = false
	added := 0
	for _, b := range batches {
		if c, ok := b.Combined.(*knowledgeCombined); ok && c.trees == k.trees && c.bits.Len() == k.vers.Len() {
			added += k.apply(c)
			continue
		}
		for _, mc := range b.MCs {
			if mc.From != k.pid {
				added += k.mergeOne(mc.Payload)
			}
		}
	}
	for _, d := range tail {
		added += k.mergeOne(d.Payload())
	}
	return added
}

// apply merges a published cache: full-width when dense, by its index
// list otherwise.
func (k *knowledge) apply(c *knowledgeCombined) int {
	if c.dense {
		k.dense = true
		return k.vers.UnionWith(c.bits)
	}
	k.touched = append(k.touched, c.idxs)
	return k.vers.MergeWords(c.bits, c.idxs)
}

// mergeOne merges one delivered payload whole: its epoch base and chain.
func (k *knowledge) mergeOne(payload any) int {
	s := k.snap(payload)
	if s == nil {
		return 0
	}
	k.dense = true
	return k.vers.Merge(s)
}

// BuildCombined implements sim.BatchConsumer for PA and DA: it folds each
// snapshot's knowledge newer than its sender's watermark into a pooled
// cache and raises the watermarks, or returns nil, leaving them alone,
// when some payload is not this plane's kind and length.
func (k *knowledge) BuildCombined(b *sim.Batch, since []int64) any {
	c := k.getCache()
	for _, mc := range b.MCs {
		s := k.snap(mc.Payload)
		if s == nil {
			k.putCache(c)
			return nil
		}
		var dense bool
		c.idxs, dense = s.AccumulateInto(c.bits, since[mc.From], c.idxs)
		c.dense = c.dense || dense
	}
	// Raise the watermarks only now that the whole batch accumulated: an
	// aborted build must not claim knowledge no cache carries.
	for _, mc := range b.MCs {
		since[mc.From] = max(since[mc.From], k.snap(mc.Payload).Ver())
	}
	if 2*len(c.idxs) >= len(c.bits.Words()) {
		c.dense = true // full-width union is cheaper than the index list
	}
	return c
}

// RecyclePayload implements sim.PayloadRecycler: snapshots whose
// recipients have all consumed them return to the versioned set's pools
// (retiring whole epochs once drained), and combined caches this machine
// built return to its cache pool.
func (k *knowledge) RecyclePayload(payload any) {
	switch v := payload.(type) {
	case DoneSet:
		k.vers.Recycle(v.S)
	case TreeSnapshot:
		k.vers.Recycle(v.S)
	case *knowledgeCombined:
		k.putCache(v)
	}
}

// PayloadWireSize implements sim.PayloadSizer: the engine asks the
// sending machine to size its own payload, so byte accounting needs no
// payload.(sim.Payload) assertion on the hot path.
func (k *knowledge) PayloadWireSize(payload any) int {
	switch v := payload.(type) {
	case DoneSet:
		return v.WireSize()
	case TreeSnapshot:
		return v.WireSize()
	}
	return 0
}

// getCache returns a cleared cache.
func (k *knowledge) getCache() *knowledgeCombined {
	if n := len(k.free); n > 0 {
		c := k.free[n-1]
		k.free = k.free[:n-1]
		return c
	}
	return &knowledgeCombined{trees: k.trees, bits: bitset.New(k.vers.Len())}
}

// putCache clears and pools a cache: sparse accumulations zero only
// their touched words, dense ones the whole set.
func (k *knowledge) putCache(c *knowledgeCombined) {
	if c.dense {
		c.bits.ClearAll()
	} else {
		words := c.bits.Words()
		for _, i := range c.idxs {
			words[i] = 0
		}
	}
	c.idxs = c.idxs[:0]
	c.dense = false
	k.free = append(k.free, c)
}

// clone returns a copy of the plane over vers, the clone's own set;
// pooled buffers stay with the original.
func (k *knowledge) clone(vers *bitset.Versioned) knowledge {
	return knowledge{pid: k.pid, trees: k.trees, vers: vers}
}

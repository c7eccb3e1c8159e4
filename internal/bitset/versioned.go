package bitset

// This file implements the versioned knowledge plane: an epoch-versioned
// bit set (Versioned) whose snapshots are immutable structural shares — a
// full base copied once per epoch plus a chain of sparse delta segments,
// one per snapshot — and the receiver-side cursor (Merger) that merges
// only the words a recipient has not seen yet.
//
// A snapshot still *means* the owner's full set at the snapshot's version;
// it is merely *represented* as base ∪ chain. Receivers that track the
// last version they merged from a sender consume only the chain suffix
// newer than that version — cost proportional to the new knowledge — and
// fall back to a full base-plus-chain merge on version gaps (first
// contact, reordering across a rebase, or a stale cursor). Because merges
// are monotone unions, a *stale* cursor is always safe: it can only cause
// redundant (idempotent) merging, never a missed word. That invariant is
// what lets batched consumers skip cursor maintenance entirely.
//
// Buffer lifecycle: snapshots are pooled through Recycle — the simulation
// engine hands a snapshot back to its owner once every recipient has
// consumed it — and a retired epoch returns its base and segment buffers
// to the owner's free lists once its last outstanding snapshot is
// recycled, so steady-state snapshotting allocates nothing.

// DeltaWord is one changed word of a delta segment: the word's index and
// its full value as of the segment's version. Values are monotone (bits
// only appear), so a newer value of the same word supersedes an older one.
type DeltaWord struct {
	Index int32
	Word  uint64
}

// segment is the immutable delta of one snapshot version: the words that
// changed since the previous snapshot of the same epoch, linked to the
// prior segment. Segments are shared by every later snapshot of the epoch.
type segment struct {
	ver   int64
	prev  *segment
	words []DeltaWord
}

// epoch is one base generation: an immutable full copy of the set at
// baseVer (nil means the empty set) plus the segments accumulated since.
// Epoch buffers are reclaimed when the epoch is retired (rebased away)
// and its last outstanding snapshot is recycled.
type epoch struct {
	baseVer     int64
	base        *Set // nil = empty base (first epoch)
	head        *segment
	segs        []*segment
	outstanding int
	retired     bool
	// arena backs the epoch's segment words: segments are immutable
	// subslices of it. Arenas are pooled with a uniform capacity floor
	// (one rebase threshold plus slack), so reuse never depends on which
	// pooled buffer pairs with which epoch — the property that keeps
	// steady-state snapshotting allocation-free.
	arena []DeltaWord
}

// Versioned is an epoch-versioned bit set with dirty-word tracking: every
// mutation stamps the touched word, and Snapshot folds the stamped words
// into an immutable delta segment. The zero value is unusable; create
// with NewVersioned.
type Versioned struct {
	set *Set
	ver int64
	// stamp[w] == ver+1 marks word w already recorded in dirty for the
	// pending segment; stamps are monotone so they never need clearing
	// between snapshots.
	stamp []int64
	dirty []int32
	cur   *epoch
	old   []*epoch // retired epochs with outstanding snapshots
	// epochWords counts delta words accumulated in the current epoch; when
	// it reaches rebaseThreshold the next snapshot starts a fresh epoch.
	epochWords int
	// free lists (segment nodes, base sets, snapshot headers, epochs,
	// segment-word arenas).
	freeSegs   []*segment
	freeSets   []*Set
	freeSnaps  []*Snapshot
	freeEps    []*epoch
	freeArenas [][]DeltaWord
}

// NewVersioned returns a versioned set with capacity for n bits, all
// clear, at version 0 with an empty base.
func NewVersioned(n int) *Versioned {
	s := New(n)
	return &Versioned{
		set:   s,
		stamp: make([]int64, len(s.words)),
		cur:   &epoch{},
	}
}

// rebaseThreshold returns the epoch delta-word budget for a set of nw
// words: once an epoch has accumulated about two full copies' worth of
// delta words, carrying the chain costs more than recopying the base.
func rebaseThreshold(nw int) int {
	t := 2 * nw
	if t < 32 {
		t = 32
	}
	return t
}

// Len returns the capacity in bits.
func (v *Versioned) Len() int { return v.set.n }

// Ver returns the version of the most recent snapshot (0 before the
// first).
func (v *Versioned) Ver() int64 { return v.ver }

// Bits exposes the underlying set for reads. Callers must not mutate it
// directly — mutations that bypass the dirty tracking would be missing
// from future snapshots.
func (v *Versioned) Bits() *Set { return v.set }

// Get reports whether bit i is set.
func (v *Versioned) Get(i int) bool { return v.set.Get(i) }

// Count returns the number of set bits.
func (v *Versioned) Count() int { return v.set.Count() }

// touch records word w as changed since the last snapshot.
func (v *Versioned) touch(w int) {
	if v.stamp[w] != v.ver+1 {
		v.stamp[w] = v.ver + 1
		v.dirty = append(v.dirty, int32(w))
	}
}

// Set sets bit i, stamping its word dirty.
func (v *Versioned) Set(i int) {
	v.set.check(i)
	w := i >> 6
	bit := uint64(1) << (uint(i) & 63)
	if v.set.words[w]&bit == 0 {
		v.set.words[w] |= bit
		v.touch(w)
	}
}

// OrWord ORs bits into word w, stamping the word dirty once if any bit
// is new, and returns the newly set bits.
func (v *Versioned) OrWord(w int, bits uint64) uint64 {
	neu := v.set.OrWord(w, bits)
	if neu != 0 {
		v.touch(w)
	}
	return neu
}

// UnionWith ORs a plain set into v (the monotone knowledge merge),
// stamping every changed word, and returns the number of bits newly set.
func (v *Versioned) UnionWith(other *Set) int {
	if other.n != v.set.n {
		panic("bitset: UnionWith length mismatch")
	}
	return v.unionDirty(other.words)
}

// UnionWithCollect is UnionWith, additionally appending every changed
// word (index and newly set bits) to out. It returns the bit count and
// the appended slice.
func (v *Versioned) UnionWithCollect(other *Set, out []DeltaWord) (int, []DeltaWord) {
	if other.n != v.set.n {
		panic("bitset: UnionWithCollect length mismatch")
	}
	added := 0
	dst := v.set.words
	for i, w := range other.words {
		if neu := w &^ dst[i]; neu != 0 {
			added += onesCount(neu)
			dst[i] |= neu
			v.touch(i)
			out = append(out, DeltaWord{int32(i), neu})
		}
	}
	return added, out
}

// MergeWords ORs src's words at the given indices into v (indices may
// repeat; repeats merge nothing new) and returns the number of bits newly
// set.
func (v *Versioned) MergeWords(src *Set, idxs []int32) int {
	added := 0
	dst := v.set.words
	for _, i := range idxs {
		if neu := src.words[i] &^ dst[i]; neu != 0 {
			added += onesCount(neu)
			dst[i] |= neu
			v.touch(int(i))
		}
	}
	return added
}

// MergeWordsCollect is MergeWords, appending changed words to out.
func (v *Versioned) MergeWordsCollect(src *Set, idxs []int32, out []DeltaWord) (int, []DeltaWord) {
	added := 0
	dst := v.set.words
	for _, i := range idxs {
		if neu := src.words[i] &^ dst[i]; neu != 0 {
			added += onesCount(neu)
			dst[i] |= neu
			v.touch(int(i))
			out = append(out, DeltaWord{i, neu})
		}
	}
	return added, out
}

// mergeSeg ORs one delta segment into v, returning newly set bits.
func (v *Versioned) mergeSeg(seg *segment) int {
	added := 0
	dst := v.set.words
	for _, dw := range seg.words {
		if neu := dw.Word &^ dst[dw.Index]; neu != 0 {
			added += onesCount(neu)
			dst[dw.Index] |= neu
			v.touch(int(dw.Index))
		}
	}
	return added
}

// mergeSegCollect is mergeSeg, appending changed words to out.
func (v *Versioned) mergeSegCollect(seg *segment, out []DeltaWord) (int, []DeltaWord) {
	added := 0
	dst := v.set.words
	for _, dw := range seg.words {
		if neu := dw.Word &^ dst[dw.Index]; neu != 0 {
			added += onesCount(neu)
			dst[dw.Index] |= neu
			v.touch(int(dw.Index))
			out = append(out, DeltaWord{dw.Index, neu})
		}
	}
	return added, out
}

// getSeg takes a segment node from the pool or allocates one.
func (v *Versioned) getSeg() *segment {
	if n := len(v.freeSegs); n > 0 {
		s := v.freeSegs[n-1]
		v.freeSegs = v.freeSegs[:n-1]
		return s
	}
	return new(segment)
}

// arenaAlloc reserves n contiguous DeltaWord slots in the epoch's arena.
// When the arena block is full a fresh block is started; segments already
// carved from the old block keep referencing it (their contents are
// immutable), the old block is simply not reused.
func (v *Versioned) arenaAlloc(ep *epoch, n int) []DeltaWord {
	if cap(ep.arena)-len(ep.arena) < n {
		floor := rebaseThreshold(len(v.set.words)) + len(v.set.words) + 8
		if floor < n {
			floor = n
		}
		var block []DeltaWord
		for len(v.freeArenas) > 0 {
			block = v.freeArenas[len(v.freeArenas)-1]
			v.freeArenas = v.freeArenas[:len(v.freeArenas)-1]
			if cap(block) >= floor {
				break
			}
			block = nil // undersized (pre-floor block): drop it
		}
		if block == nil {
			block = make([]DeltaWord, 0, floor)
		}
		ep.arena = block
	}
	start := len(ep.arena)
	ep.arena = ep.arena[:start+n]
	return ep.arena[start : start+n : start+n]
}

// Snapshot captures the set's current contents as an immutable versioned
// snapshot: the pending dirty words become this version's delta segment,
// chained onto the epoch. When the epoch's accumulated delta volume
// crosses the rebase threshold the snapshot instead starts a fresh epoch
// whose base is a full copy — the full-merge fallback recipients see as a
// version gap. The returned snapshot must be handed back via Recycle once
// no reference to it remains.
func (v *Versioned) Snapshot() *Snapshot {
	v.ver++
	if len(v.dirty) > 0 {
		seg := v.getSeg()
		seg.ver = v.ver
		seg.words = v.arenaAlloc(v.cur, len(v.dirty))
		for k, w := range v.dirty {
			seg.words[k] = DeltaWord{w, v.set.words[w]}
		}
		seg.prev = v.cur.head
		v.cur.head = seg
		v.cur.segs = append(v.cur.segs, seg)
		v.epochWords += len(v.dirty)
		v.dirty = v.dirty[:0]
	}
	if v.epochWords >= rebaseThreshold(len(v.set.words)) {
		v.rebase()
	}
	ep := v.cur
	var s *Snapshot
	if n := len(v.freeSnaps); n > 0 {
		s = v.freeSnaps[n-1]
		v.freeSnaps = v.freeSnaps[:n-1]
	} else {
		s = new(Snapshot)
	}
	*s = Snapshot{owner: v, ep: ep, ver: v.ver, head: ep.head}
	ep.outstanding++
	return s
}

// rebase retires the current epoch and starts a fresh one whose base is a
// full copy of the set at the current version.
func (v *Versioned) rebase() {
	prev := v.cur
	prev.retired = true

	var base *Set
	if n := len(v.freeSets); n > 0 {
		base = v.freeSets[n-1]
		v.freeSets = v.freeSets[:n-1]
		base.CopyFrom(v.set)
	} else {
		base = v.set.Clone()
	}
	var ep *epoch
	if n := len(v.freeEps); n > 0 {
		ep = v.freeEps[n-1]
		v.freeEps = v.freeEps[:n-1]
	} else {
		ep = new(epoch)
	}
	*ep = epoch{baseVer: v.ver, base: base, segs: ep.segs[:0]}
	v.cur = ep
	v.epochWords = 0

	if prev.outstanding == 0 {
		v.freeEpoch(prev)
	} else {
		v.old = append(v.old, prev)
	}
}

// freeEpoch returns a fully drained epoch's buffers to the pools.
func (v *Versioned) freeEpoch(ep *epoch) {
	for _, seg := range ep.segs {
		seg.prev = nil
		seg.words = nil
		v.freeSegs = append(v.freeSegs, seg)
	}
	if ep.base != nil {
		v.freeSets = append(v.freeSets, ep.base)
	}
	if ep.arena != nil {
		// Pool the epoch's (final) arena block; blocks it outgrew are
		// garbage, which only happens while capacities converge.
		v.freeArenas = append(v.freeArenas, ep.arena[:0])
	}
	*ep = epoch{segs: ep.segs[:0]}
	v.freeEps = append(v.freeEps, ep)
}

// Recycle hands a snapshot back to the pool. The caller guarantees no
// live reference to the snapshot remains; the simulation engine calls it
// (via the machine's PayloadRecycler hook) once every recipient of the
// snapshot's multicast has consumed or missed its delivery.
func (v *Versioned) Recycle(s *Snapshot) {
	if s.owner != v {
		return // foreign snapshot (e.g. from a cloned machine): not pooled
	}
	ep := s.ep
	*s = Snapshot{}
	v.freeSnaps = append(v.freeSnaps, s)
	ep.outstanding--
	if ep.retired && ep.outstanding == 0 {
		// Remove ep from the retired list (order not significant).
		for i, e := range v.old {
			if e == ep {
				last := len(v.old) - 1
				v.old[i] = v.old[last]
				v.old[last] = nil
				v.old = v.old[:last]
				break
			}
		}
		v.freeEpoch(ep)
	}
}

// OutstandingSnapshots reports snapshots handed out and not yet recycled
// (diagnostics and leak tests).
func (v *Versioned) OutstandingSnapshots() int {
	n := v.cur.outstanding
	for _, ep := range v.old {
		n += ep.outstanding
	}
	return n
}

// Reset restores the set to empty at version 0, keeping the pools. Epochs
// with still-outstanding snapshots are abandoned to the garbage collector
// (their buffers may still be referenced); fully drained ones are pooled.
func (v *Versioned) Reset() {
	v.set.ClearAll()
	v.ver = 0
	clear(v.stamp)
	v.dirty = v.dirty[:0]
	if v.cur.outstanding == 0 {
		v.freeEpoch(v.cur)
	}
	for _, ep := range v.old {
		if ep.outstanding == 0 {
			v.freeEpoch(ep)
		}
	}
	v.old = v.old[:0]
	var ep *epoch
	if n := len(v.freeEps); n > 0 {
		ep = v.freeEps[n-1]
		v.freeEps = v.freeEps[:n-1]
	} else {
		ep = new(epoch)
	}
	*ep = epoch{segs: ep.segs[:0]}
	v.cur = ep
	v.epochWords = 0
}

// Rejoin clears the set for a crash-restart while keeping the version
// counter monotone. It is the mid-run sibling of Reset: a revived
// processor must forget its knowledge, but its pre-crash snapshots may
// still be in flight, so versions must keep increasing — receivers whose
// cursor points at a pre-crash version then see every post-rejoin
// snapshot as a version gap and fall back to a full base-plus-chain
// merge, which is exactly the rebase-on-revive rule. The current epoch is
// retired (pooled once its outstanding snapshots drain) and replaced by
// an empty-based epoch primed to rebase: the next Snapshot immediately
// starts a fresh epoch whose base is a full copy, so it travels as a full
// (non-delta) payload.
func (v *Versioned) Rejoin() {
	v.set.ClearAll()
	// The pending dirty words describe pre-crash mutations of a set that
	// is now empty; drop them. Stamps are keyed to ver+1 and ver does not
	// advance here, so they must be cleared too or post-rejoin touches of
	// the same words would be missed.
	clear(v.stamp)
	v.dirty = v.dirty[:0]
	prev := v.cur
	prev.retired = true
	var ep *epoch
	if n := len(v.freeEps); n > 0 {
		ep = v.freeEps[n-1]
		v.freeEps = v.freeEps[:n-1]
	} else {
		ep = new(epoch)
	}
	*ep = epoch{baseVer: v.ver, segs: ep.segs[:0]}
	v.cur = ep
	// Prime the rebase: crossing the threshold makes the next Snapshot
	// retire this transitional epoch and emit a full-base snapshot.
	v.epochWords = rebaseThreshold(len(v.set.words))
	if prev.outstanding == 0 {
		v.freeEpoch(prev)
	} else {
		v.old = append(v.old, prev)
	}
}

// Clone returns a deep, independent copy at the same version. The clone
// starts a fresh epoch whose base is the current contents (a safe
// over-approximation of the state at the clone's version: merges are
// monotone, so recipients of the clone's snapshots can only receive
// knowledge the clone actually holds). Pools are not shared.
func (v *Versioned) Clone() *Versioned {
	c := &Versioned{
		set:   v.set.Clone(),
		ver:   v.ver,
		stamp: append([]int64(nil), v.stamp...),
		dirty: append([]int32(nil), v.dirty...),
		cur:   &epoch{baseVer: v.ver, base: v.set.Clone()},
	}
	return c
}

// Snapshot is an immutable versioned view of a Versioned set: the owner's
// full contents at version Ver, represented as the epoch base plus the
// delta chain up to Ver. Snapshots are shared, uncopied, by every
// recipient of a multicast and must be treated as read-only.
type Snapshot struct {
	owner *Versioned
	ep    *epoch
	ver   int64
	head  *segment
}

// Ver returns the snapshot's version.
func (s *Snapshot) Ver() int64 { return s.ver }

// BaseVer returns the version at which the snapshot's epoch base was
// captured; receivers whose cursor is older than this need a full merge.
func (s *Snapshot) BaseVer() int64 { return s.ep.baseVer }

// Len returns the capacity in bits.
func (s *Snapshot) Len() int { return s.owner.set.n }

// Base returns the epoch's immutable base set (nil = empty base).
func (s *Snapshot) Base() *Set { return s.ep.base }

// Delta returns the newest delta segment's words — what actually goes on
// the wire for in-sequence receivers — or nil when the snapshot is a
// fresh rebase (or nothing changed); then the wire carries the base.
func (s *Snapshot) Delta() []DeltaWord {
	if s.head == nil || s.head.ver != s.ver {
		return nil
	}
	return s.head.words
}

// WireDelta returns the delta-segment words a wire encoding of this
// snapshot carries and true, or (nil, false) when the snapshot has no
// chain (a fresh rebase or a never-changed epoch) and must travel as a
// full snapshot. The words are empty (but ok is true) when the version
// advanced with no changes.
func (s *Snapshot) WireDelta() ([]DeltaWord, bool) {
	if s.head == nil {
		return nil, false
	}
	if s.head.ver != s.ver {
		return nil, true
	}
	return s.head.words, true
}

// ChainLen returns the number of delta segments reachable from this
// snapshot (diagnostics).
func (s *Snapshot) ChainLen() int {
	n := 0
	for seg := s.head; seg != nil; seg = seg.prev {
		n++
	}
	return n
}

// Materialize overwrites dst with the snapshot's full meaning: the
// owner's complete set at version Ver.
func (s *Snapshot) Materialize(dst *Set) {
	if dst.n != s.owner.set.n {
		panic("bitset: Materialize length mismatch")
	}
	if s.ep.base != nil {
		dst.CopyFrom(s.ep.base)
	} else {
		dst.ClearAll()
	}
	for seg := s.head; seg != nil; seg = seg.prev {
		for _, dw := range seg.words {
			dst.words[dw.Index] |= dw.Word
		}
	}
}

// Merger is the receiver-side cursor of the versioned knowledge plane:
// last[i] is a lower bound on the newest version this receiver has merged
// from sender i. The bound may be stale — batched consumers skip cursor
// maintenance — and staleness is safe by monotonicity: a stale cursor
// merges redundant (idempotent) words, never misses one.
type Merger struct {
	p    int
	last []int64 // allocated on first use; nil means all cursors at 0
}

// NewMerger returns a cursor set for p senders, all at version 0. The
// cursor array is allocated lazily on first use: under the engine's
// batched delivery path most machines never maintain cursors (stale
// cursors are safe), and p machines × p senders of eager arrays would
// dominate machine-construction garbage at large p.
func NewMerger(p int) *Merger { return &Merger{p: p} }

// ensure materializes the cursor array.
func (m *Merger) ensure() []int64 {
	if m.last == nil {
		m.last = make([]int64, m.p)
	}
	return m.last
}

// Reset zeroes every cursor for a fresh execution.
func (m *Merger) Reset() { clear(m.last) }

// Clone returns an independent copy.
func (m *Merger) Clone() *Merger {
	c := &Merger{p: m.p}
	if m.last != nil {
		c.last = append([]int64(nil), m.last...)
	}
	return c
}

// Last returns the cursor for sender `from`.
func (m *Merger) Last(from int) int64 {
	if m.last == nil {
		return 0
	}
	return m.last[from]
}

// Note raises the cursor for sender `from` to ver (never lowers it).
func (m *Merger) Note(from int, ver int64) {
	last := m.ensure()
	if ver > last[from] {
		last[from] = ver
	}
}

// Merge folds snapshot s from sender `from` into dst and returns the
// number of bits newly set. In sequence (cursor ≥ base version) it merges
// only the chain suffix newer than the cursor — cost proportional to the
// new knowledge; behind the base (gap, first contact, stale cursor after
// a rebase) it falls back to a full base-plus-chain merge. Versions at or
// below the cursor merge nothing.
func (m *Merger) Merge(dst *Versioned, from int, s *Snapshot) int {
	last := m.ensure()
	u := last[from]
	if s.ver <= u {
		return 0
	}
	added := 0
	if u < s.ep.baseVer {
		if s.ep.base != nil {
			added += dst.UnionWith(s.ep.base)
		}
		for seg := s.head; seg != nil; seg = seg.prev {
			added += dst.mergeSeg(seg)
		}
	} else {
		for seg := s.head; seg != nil && seg.ver > u; seg = seg.prev {
			added += dst.mergeSeg(seg)
		}
	}
	last[from] = s.ver
	return added
}

// MergeCollect is Merge, appending every changed word (index and newly
// set bits) to out — receivers that must react to individual new bits
// (DA's progress-tree closure propagation) use it.
func (m *Merger) MergeCollect(dst *Versioned, from int, s *Snapshot, out []DeltaWord) (int, []DeltaWord) {
	last := m.ensure()
	u := last[from]
	if s.ver <= u {
		return 0, out
	}
	added, n := 0, 0
	if u < s.ep.baseVer {
		if s.ep.base != nil {
			n, out = dst.UnionWithCollect(s.ep.base, out)
			added += n
		}
		for seg := s.head; seg != nil; seg = seg.prev {
			n, out = dst.mergeSegCollect(seg, out)
			added += n
		}
	} else {
		for seg := s.head; seg != nil && seg.ver > u; seg = seg.prev {
			n, out = dst.mergeSegCollect(seg, out)
			added += n
		}
	}
	last[from] = s.ver
	return added, out
}

// AccumulateInto ORs the portion of snapshot s this receiver has not seen
// (per its cursor) into the plain scratch set acc, appending the touched
// word indices to idxs (repeats allowed), without updating the cursor or
// any destination set. Batch builders use it to construct the combined
// knowledge of one delivery group. It returns the extended index slice
// and whether the accumulation was dense (included a full base, so acc
// should be consumed by a full-width union rather than by index list).
func (m *Merger) AccumulateInto(acc *Set, from int, s *Snapshot, idxs []int32) ([]int32, bool) {
	u := m.Last(from)
	if s.ver <= u {
		return idxs, false
	}
	if u < s.ep.baseVer {
		if s.ep.base != nil {
			acc.OrWith(s.ep.base)
		}
		for seg := s.head; seg != nil; seg = seg.prev {
			for _, dw := range seg.words {
				acc.words[dw.Index] |= dw.Word
			}
		}
		return idxs, true
	}
	for seg := s.head; seg != nil && seg.ver > u; seg = seg.prev {
		for _, dw := range seg.words {
			acc.words[dw.Index] |= dw.Word
			idxs = append(idxs, dw.Index)
		}
	}
	return idxs, false
}

// Package tree implements the q-ary boolean progress tree of algorithm
// DA(q) (Kowalski & Shvartsman, Section 5.1.1).
//
// The tree has t = q^h leaves; tasks are associated with the leaves. Each
// node holds a boolean: 1 means every task in the subtree rooted there has
// been performed. Nodes are packed into an array with the root at index 0
// and the q children of interior node n at indices q·n+1 … q·n+q.
//
// Updates are monotone (0→1 only), so merging two replicas is a
// commutative, idempotent OR — exactly the property the paper uses to
// replace shared memory with multicast (Section 5.1.2).
//
// After a merge the closure rule — an interior node is done iff all its
// children are — is restored by Close, a word kernel: it computes a word
// of 64 parents at a time from the words holding their children, visiting
// only the parent words of the words a merge touched. A single marked
// leaf (MarkLeaf) still walks upward one node at a time; the bottom-up
// recompute behind Merge, MergeSet and MergeBits is O(size).
package tree

import (
	"fmt"
	"math/bits"

	"doall/internal/bitset"
)

// Tree is a replicated q-ary boolean progress tree.
type Tree struct {
	q      int
	height int
	leaves int
	size   int
	// done is the packed node bit array; bit 0 is the root.
	done *bitset.Set
	// vers, when non-nil, is the epoch-versioned view over the same bits:
	// every mutation routes through it so its dirty-word tracking sees the
	// change, and DA's TreeSnapshot payloads are its versioned snapshots.
	vers *bitset.Versioned
	// work and cand are Close's scratch, allocated once per tree, empty
	// between calls and never shared with a clone. Bit j of work is set
	// while word j of done holds parents left to close; for q ≠ 2, cand[j]
	// holds those parents (the q = 2 kernel computes whole words instead).
	work []uint64
	cand []uint64
}

// setBit marks node n, through the versioned set when attached.
func (t *Tree) setBit(n int) {
	if t.vers != nil {
		t.vers.Set(n)
	} else {
		t.done.Set(n)
	}
}

// New creates a progress tree with arity q and q^height leaves, all nodes
// unset. It panics if q < 2 or height < 0.
func New(q, height int) *Tree {
	if q < 2 {
		panic("tree: arity must be at least 2")
	}
	if height < 0 {
		panic("tree: height must be non-negative")
	}
	leaves := 1
	for i := 0; i < height; i++ {
		leaves *= q
	}
	// size = (q^{h+1} - 1)/(q - 1)
	size := (leaves*q - 1) / (q - 1)
	t := &Tree{q: q, height: height, leaves: leaves, size: size, done: bitset.New(size)}
	t.allocScratch()
	return t
}

// allocScratch gives the tree its own empty Close scratch.
func (t *Tree) allocScratch() {
	nw := (t.size + 63) / 64
	t.work = make([]uint64, (nw+63)/64)
	if t.q != 2 {
		t.cand = make([]uint64, nw)
	}
}

// NewVersioned creates a progress tree whose node bits are an
// epoch-versioned set: snapshots share structure (base + delta chain)
// instead of copying all nodes, which is what makes DA's per-broadcast
// TreeSnapshot O(changed words). The returned Versioned is the tree's
// mutation log; Versioned().Snapshot() captures the payload.
func NewVersioned(q, height int) *Tree {
	t := New(q, height)
	t.vers = bitset.NewVersioned(t.size)
	t.done = t.vers.Bits()
	return t
}

// NewForTasksVersioned is NewForTasks over a versioned tree.
func NewForTasksVersioned(q, tasks int) (*Tree, int) { return newForTasks(q, tasks, NewVersioned) }

// Versioned returns the tree's epoch-versioned bit set, or nil for a
// plain tree.
func (t *Tree) Versioned() *bitset.Versioned { return t.vers }

// NewForTasks returns a tree of arity q with at least t leaves (the
// smallest power of q ≥ t), plus the number of padded "dummy" leaves that
// carry no real task. Dummy leaves are pre-marked done, implementing the
// paper's padding technique (Section 5.1) without charging work for them.
func NewForTasks(q, t int) (*Tree, int) { return newForTasks(q, t, New) }

// newForTasks builds, with build (New or NewVersioned), the shortest tree
// of arity q with at least tasks leaves and marks its padding.
func newForTasks(q, tasks int, build func(q, height int) *Tree) (*Tree, int) {
	if tasks < 1 {
		panic("tree: need at least one task")
	}
	h := 0
	for leaves := 1; leaves < tasks; leaves *= q {
		h++
	}
	tr := build(q, h)
	return tr, tr.markPadding(tasks)
}

// markPadding marks the padding leaves tasks … Leaves()-1 done, one
// MarkLeaf at a time in leaf order (the order a versioned tree's dirty
// stamps record), and returns how many there are.
func (t *Tree) markPadding(tasks int) int {
	for i := tasks; i < t.leaves; i++ {
		t.MarkLeaf(i)
	}
	return t.leaves - tasks
}

// Height returns the height h (leaves are at depth h).
func (t *Tree) Height() int { return t.height }

// Leaves returns the number of leaves q^h.
func (t *Tree) Leaves() int { return t.leaves }

// Size returns the total number of nodes.
func (t *Tree) Size() int { return t.size }

// Root returns the index of the root node (always 0).
func (t *Tree) Root() int { return 0 }

// Child returns the index of the c-th child (0-based) of interior node n.
func (t *Tree) Child(n, c int) int {
	if c < 0 || c >= t.q {
		panic(fmt.Sprintf("tree: child index %d out of range [0,%d)", c, t.q))
	}
	return t.q*n + 1 + c
}

// Parent returns the index of the parent of node n, or -1 for the root.
func (t *Tree) Parent(n int) int {
	if n == 0 {
		return -1
	}
	return (n - 1) / t.q
}

// IsLeaf reports whether node n is a leaf.
func (t *Tree) IsLeaf(n int) bool { return n >= t.size-t.leaves }

// LeafIndex returns the 0-based leaf number of leaf node n (its task id).
// It panics if n is not a leaf.
func (t *Tree) LeafIndex(n int) int {
	if !t.IsLeaf(n) {
		panic(fmt.Sprintf("tree: node %d is not a leaf", n))
	}
	return n - (t.size - t.leaves)
}

// LeafNode returns the node index of the i-th leaf.
func (t *Tree) LeafNode(i int) int {
	if i < 0 || i >= t.leaves {
		panic(fmt.Sprintf("tree: leaf %d out of range [0,%d)", i, t.leaves))
	}
	return t.size - t.leaves + i
}

// Done reports whether node n is marked done.
func (t *Tree) Done(n int) bool { return t.done.Get(n) }

// AllDone reports whether the root is marked, i.e. all tasks are known
// complete.
func (t *Tree) AllDone() bool { return t.done.Get(0) }

// Mark sets node n to done. Marking is monotone; re-marking is a no-op.
func (t *Tree) Mark(n int) { t.setBit(n) }

// MarkLeaf marks the i-th leaf done and propagates upward: any interior
// node all of whose children are done is marked as well.
func (t *Tree) MarkLeaf(i int) {
	n := t.LeafNode(i)
	t.setBit(n)
	t.propagate(t.Parent(n))
}

// propagate walks from node n to the root, marking each node whose
// children are all done, stopping early when a node stays unset. Each
// level costs a division for the parent index and one masked word-window
// test over the q child bits — O(1 + q/64) word operations — so a walk is
// O(height·(1 + q/64)). It serves MarkLeaf only; merged bits go to Close.
func (t *Tree) propagate(n int) {
	for n >= 0 {
		if t.done.Get(n) || !t.childrenDone(n) {
			return
		}
		t.setBit(n)
		n = t.Parent(n)
	}
}

// childrenDone reports whether all q children of interior node n — the
// contiguous bits q·n+1 … q·n+q — are done.
func (t *Tree) childrenDone(n int) bool { return t.done.AllSet(t.q*n+1, t.q) }

// Close restores the closure rule after bits were ORed into the tree,
// given the words those bits may have landed in: every word of each
// touched index list (repeats allowed), or every word when all is set.
// It queues the parents of every set bit of those words, a superset of
// the parents of the new bits, and visits only the queued parent words,
// from the highest word down, so every child word is final before its
// parents' word is computed; word 0 holds its own parents (nodes 1–63 of
// a binary tree have parents 0–31) and is revisited until it stops
// changing. For q = 2 a parent word is computed whole from its three
// child words with a few shifts and masks. For other q only the queued
// parents that are not yet done are tested, each with one child-window
// test. Each changed word is ORed in, and stamped dirty, once per visit.
// The tree must have been closed before the merge: the result is then
// the unique closure, so the bits set, and the words dirtied, depend
// neither on the visiting order nor on how loose the superset is.
func (t *Tree) Close(touched [][]int32, all bool) {
	w := t.done.Words()
	top := -1
	if all {
		for k, x := range w {
			t.queueParents(k, x)
		}
		top = len(w) - 1
	} else {
		for _, idxs := range touched {
			for _, k := range idxs {
				t.queueParents(int(k), w[k])
				top = max(top, int(k))
			}
		}
	}
	// A parent's word never exceeds its child's, so top bounds the queue.
	for i := top >> 6; i >= 0; i-- {
		for t.work[i] != 0 {
			b := 63 - bits.LeadingZeros64(t.work[i])
			t.work[i] &^= 1 << uint(b)
			j := i<<6 | b
			if neu := t.closeWord(j); neu != 0 {
				t.queueParents(j, neu)
			}
		}
	}
}

// queueParents queues the words holding the parents of nb, bits of word
// k that may be new.
func (t *Tree) queueParents(k int, nb uint64) {
	if k == 0 {
		nb &^= 1 // the root has no parent
	}
	if nb == 0 {
		return
	}
	if t.q == 2 {
		// Node 64k+b has parent 32k+(b−1)/2, in word k/2 — except bit 0 of
		// an even word, whose parent 32k−1 ends word k/2−1.
		if k&1 == 1 || nb&^1 != 0 {
			t.queue(k >> 1)
		}
		if k&1 == 0 && nb&1 != 0 {
			t.queue(k>>1 - 1)
		}
		return
	}
	// Divide once per word: later parents are found by stepping over
	// whole sibling groups of q nodes. Each parent's remaining children
	// are masked off, so a full word costs one pass per parent, not per
	// bit. A parent that is done, or has a clear child in word k, cannot
	// close and is not queued; a child window reaching past word k is
	// left to closeWord's test.
	w := t.done.Words()
	base := k << 6
	p := (base + bits.TrailingZeros64(nb) - 1) / t.q
	if last := (base + 62 - bits.LeadingZeros64(nb)) / t.q; t.done.AllSet(p, last-p+1) {
		return // every parent of nb is done: the usual case in a closed region
	}
	end := t.q*p + t.q + 1 // one past p's last child
	for {
		lo := end - t.q - base // p's first child, as a bit of word k
		if w[p>>6]&(1<<(uint(p)&63)) == 0 {
			if lo < 0 || end-base > 64 {
				t.candidate(p)
			} else if m := (uint64(1)<<uint(t.q) - 1) << uint(lo); w[k]&m == m {
				t.candidate(p)
			}
		}
		if end-base >= 64 {
			return
		}
		if nb &= ^uint64(0) << uint(end-base); nb == 0 {
			return
		}
		for n := base + bits.TrailingZeros64(nb); end <= n; end += t.q {
			p++
		}
	}
}

// candidate queues parent p for closeWord's child test (q ≠ 2).
func (t *Tree) candidate(p int) {
	t.cand[p>>6] |= 1 << (uint(p) & 63)
	t.queue(p >> 6)
}

// queue adds word j to Close's worklist.
func (t *Tree) queue(j int) { t.work[j>>6] |= 1 << (uint(j) & 63) }

// closeWord marks every queued parent in word j whose children are all
// done and returns the newly set bits.
func (t *Tree) closeWord(j int) uint64 {
	w := t.done.Words()
	var closed uint64
	if t.q == 2 {
		closed = closedPairs(w, j)
	} else {
		c := t.cand[j] &^ w[j]
		t.cand[j] = 0
		for c != 0 {
			b := bits.TrailingZeros64(c)
			c &= c - 1
			if t.childrenDone(j<<6 | b) {
				closed |= 1 << uint(b)
			}
		}
	}
	if t.vers != nil {
		return t.vers.OrWord(j, closed)
	}
	return t.done.OrWord(j, closed)
}

// closedPairs returns word j of a binary tree's parents as they should be
// closed: bit i is set iff both children of node 64j+i — nodes 128j+2i+1
// and 128j+2i+2 — are done. Those children are bits 1–63 of word 2j, all
// of word 2j+1 and bit 0 of word 2j+2; words past the end read as zero,
// and so do the children of leaves, so only interior nodes can be set.
func closedPairs(w []uint64, j int) uint64 {
	var c1, c2 uint64
	c0 := w[2*j]
	if 2*j+1 < len(w) {
		c1 = w[2*j+1]
	}
	if 2*j+2 < len(w) {
		c2 = w[2*j+2]
	}
	lo := c0>>1 | c1<<63 // bit k: node 128j+1+k
	hi := c1>>1 | c2<<63 // bit k: node 128j+65+k
	return evenBits(lo&(lo>>1)) | evenBits(hi&(hi>>1))<<32
}

// evenBits packs bits 0, 2, …, 62 of x into bits 0–31.
func evenBits(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0x00000000ffffffff
}

// Merge ORs the other tree's bits into t and then restores the invariant
// that every interior node whose children are all done is itself done.
// Both trees must have identical shape. Merge is commutative, idempotent,
// and monotone, which is what makes replica exchange by multicast safe.
func (t *Tree) Merge(other *Tree) {
	if other.q != t.q || other.height != t.height {
		panic("tree: Merge of trees with different shape")
	}
	t.union(other.done)
	t.recompute()
}

// union ORs raw bits in, through the versioned set when attached.
func (t *Tree) union(bits *bitset.Set) {
	if t.vers != nil {
		t.vers.UnionWith(bits)
	} else {
		t.done.UnionWith(bits)
	}
}

// MergeSet ORs a raw bit snapshot (as produced by SnapshotSet) into the
// tree and restores the interior-closure invariant.
func (t *Tree) MergeSet(bits *bitset.Set) {
	if bits.Len() != t.size {
		panic("tree: MergeSet length mismatch")
	}
	t.union(bits)
	t.recompute()
}

// MergeBits ORs a raw bit snapshot (as produced by Snapshot) into the tree.
func (t *Tree) MergeBits(bits []bool) {
	if len(bits) != t.size {
		panic("tree: MergeBits length mismatch")
	}
	t.union(bitset.FromBools(bits))
	t.recompute()
}

// recompute re-establishes the upward closure bottom-up in O(size).
func (t *Tree) recompute() {
	firstLeaf := t.size - t.leaves
	for n := firstLeaf - 1; n >= 0; n-- {
		if !t.done.Get(n) && t.childrenDone(n) {
			t.setBit(n)
		}
	}
}

// Snapshot returns a copy of the node bits as a []bool.
func (t *Tree) Snapshot() []bool { return t.done.ToBools() }

// SnapshotSet returns a copy of the node bits as a compact bit set,
// suitable for putting in a message.
func (t *Tree) SnapshotSet() *bitset.Set { return t.done.Clone() }

// ResetPadded restores the tree to its initial NewForTasks(q, tasks)
// state: every node cleared, then the padding leaves ≥ tasks re-marked
// (with upward propagation). It allocates nothing, so trial loops can
// reuse one tree.
func (t *Tree) ResetPadded(tasks int) {
	if t.vers != nil {
		t.vers.Reset()
	} else {
		t.done.ClearAll()
	}
	t.markPadding(tasks)
}

// RejoinPadded restores the tree to its initial state for a crash-restart
// mid-run: every node cleared and the padding leaves re-marked, like
// ResetPadded, but through the versioned set's Rejoin so the version
// counter stays monotone and the next snapshot travels as a full rebase
// (in-flight pre-crash snapshots stay valid). Plain trees fall back to a
// simple clear.
func (t *Tree) RejoinPadded(tasks int) {
	if t.vers != nil {
		t.vers.Rejoin()
	} else {
		t.done.ClearAll()
	}
	t.markPadding(tasks)
}

// Clone returns a deep copy of the tree (including the versioned view,
// when attached; the clone's snapshot pools start empty) with its own
// Close scratch.
func (t *Tree) Clone() *Tree {
	c := *t
	if t.vers != nil {
		c.vers = t.vers.Clone()
		c.done = c.vers.Bits()
	} else {
		c.done = t.done.Clone()
	}
	c.allocScratch()
	return &c
}

// CountDoneLeaves returns the number of leaves currently marked done.
func (t *Tree) CountDoneLeaves() int {
	n := 0
	for i := 0; i < t.leaves; i++ {
		if t.done.Get(t.LeafNode(i)) {
			n++
		}
	}
	return n
}

// CheckInvariant verifies that an interior node is done iff all its
// children are done, for use in tests. It returns the first violating node
// index, or -1 if the invariant holds. (A done interior node with an unset
// child can never occur; an unset interior node with all children done is
// a propagation bug.)
func (t *Tree) CheckInvariant() int {
	firstLeaf := t.size - t.leaves
	for n := 0; n < firstLeaf; n++ {
		all := true
		for c := 0; c < t.q; c++ {
			if !t.done.Get(t.Child(n, c)) {
				all = false
				break
			}
		}
		if all != t.done.Get(n) {
			return n
		}
	}
	return -1
}

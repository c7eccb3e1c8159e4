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
package tree

import (
	"fmt"

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
	return &Tree{q: q, height: height, leaves: leaves, size: size, done: bitset.New(size)}
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
func NewForTasksVersioned(q, tasks int) (*Tree, int) {
	if tasks < 1 {
		panic("tree: need at least one task")
	}
	h := 0
	leaves := 1
	for leaves < tasks {
		leaves *= q
		h++
	}
	tr := NewVersioned(q, h)
	pad := leaves - tasks
	for i := tasks; i < leaves; i++ {
		tr.MarkLeaf(i)
	}
	return tr, pad
}

// Versioned returns the tree's epoch-versioned bit set, or nil for a
// plain tree.
func (t *Tree) Versioned() *bitset.Versioned { return t.vers }

// NewForTasks returns a tree of arity q with at least t leaves (the
// smallest power of q ≥ t), plus the number of padded "dummy" leaves that
// carry no real task. Dummy leaves are pre-marked done, implementing the
// paper's padding technique (Section 5.1) without charging work for them.
func NewForTasks(q, t int) (*Tree, int) {
	if t < 1 {
		panic("tree: need at least one task")
	}
	h := 0
	leaves := 1
	for leaves < t {
		leaves *= q
		h++
	}
	tr := New(q, h)
	pad := leaves - t
	for i := t; i < leaves; i++ {
		tr.MarkLeaf(i)
	}
	return tr, pad
}

// Arity returns q.
func (t *Tree) Arity() int { return t.q }

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
// level costs one masked word-window test over the q child bits —
// O(1 + q/64) word operations — so a closure walk is O(height·(1 + q/64)).
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

// PropagateUp restores the interior-closure invariant upward from node n
// after n was externally marked (a merged snapshot bit): each ancestor
// whose children are now all done is marked, stopping at the first that
// is not. Cost is propagate's O(height·(1 + q/64)) worst case but stops
// early, so applying a delta costs new-knowledge work, unlike the full
// recompute's pass over every interior node.
func (t *Tree) PropagateUp(n int) { t.propagate(t.Parent(n)) }

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

// SnapshotInto copies the node bits into dst (length must be Size()),
// the allocation-free form of SnapshotSet for pooled payload buffers.
func (t *Tree) SnapshotInto(dst *bitset.Set) { dst.CopyFrom(t.done) }

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
	for i := tasks; i < t.leaves; i++ {
		t.MarkLeaf(i)
	}
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
	for i := tasks; i < t.leaves; i++ {
		t.MarkLeaf(i)
	}
}

// Clone returns a deep copy of the tree (including the versioned view,
// when attached; the clone's snapshot pools start empty).
func (t *Tree) Clone() *Tree {
	c := *t
	if t.vers != nil {
		c.vers = t.vers.Clone()
		c.done = c.vers.Bits()
	} else {
		c.done = t.done.Clone()
	}
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

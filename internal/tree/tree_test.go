package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"doall/internal/bitset"
)

func TestNewShape(t *testing.T) {
	cases := []struct {
		q, h, leaves, size int
	}{
		{2, 0, 1, 1},
		{2, 1, 2, 3},
		{2, 3, 8, 15},
		{3, 2, 9, 13},
		{4, 2, 16, 21},
		{5, 1, 5, 6},
	}
	for _, c := range cases {
		tr := New(c.q, c.h)
		if tr.Leaves() != c.leaves {
			t.Errorf("New(%d,%d).Leaves() = %d, want %d", c.q, c.h, tr.Leaves(), c.leaves)
		}
		if tr.Size() != c.size {
			t.Errorf("New(%d,%d).Size() = %d, want %d", c.q, c.h, tr.Size(), c.size)
		}
	}
}

func TestNewPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 2) should panic")
		}
	}()
	New(1, 2)
}

func TestChildParentRoundTrip(t *testing.T) {
	tr := New(3, 3)
	for n := 0; n < tr.Size()-tr.Leaves(); n++ {
		for c := 0; c < 3; c++ {
			child := tr.Child(n, c)
			if tr.Parent(child) != n {
				t.Fatalf("Parent(Child(%d,%d)) = %d, want %d", n, c, tr.Parent(child), n)
			}
		}
	}
	if tr.Parent(tr.Root()) != -1 {
		t.Fatal("root parent should be -1")
	}
}

func TestLeafIndexing(t *testing.T) {
	tr := New(2, 3)
	for i := 0; i < tr.Leaves(); i++ {
		n := tr.LeafNode(i)
		if !tr.IsLeaf(n) {
			t.Fatalf("LeafNode(%d) = %d not a leaf", i, n)
		}
		if tr.LeafIndex(n) != i {
			t.Fatalf("LeafIndex(LeafNode(%d)) = %d", i, tr.LeafIndex(n))
		}
	}
	if tr.IsLeaf(tr.Root()) {
		t.Fatal("root of height-3 tree is not a leaf")
	}
}

func TestMarkLeafPropagates(t *testing.T) {
	tr := New(2, 2) // 4 leaves
	tr.MarkLeaf(0)
	tr.MarkLeaf(1)
	// Left subtree root (child 0 of root) must now be done.
	left := tr.Child(tr.Root(), 0)
	if !tr.Done(left) {
		t.Fatal("interior node not marked after both children done")
	}
	if tr.AllDone() {
		t.Fatal("root marked too early")
	}
	tr.MarkLeaf(2)
	tr.MarkLeaf(3)
	if !tr.AllDone() {
		t.Fatal("root not marked after all leaves done")
	}
	if bad := tr.CheckInvariant(); bad != -1 {
		t.Fatalf("invariant violated at node %d", bad)
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := New(2, 0)
	if tr.AllDone() {
		t.Fatal("fresh single-leaf tree is done")
	}
	tr.MarkLeaf(0)
	if !tr.AllDone() {
		t.Fatal("single-leaf tree not done after marking the leaf")
	}
}

func TestNewForTasksPadding(t *testing.T) {
	tr, pad := NewForTasks(3, 7) // next power of 3 is 9
	if tr.Leaves() != 9 || pad != 2 {
		t.Fatalf("NewForTasks(3,7): leaves=%d pad=%d, want 9, 2", tr.Leaves(), pad)
	}
	// Dummy leaves 7 and 8 are pre-marked.
	if !tr.Done(tr.LeafNode(7)) || !tr.Done(tr.LeafNode(8)) {
		t.Fatal("dummy leaves not pre-marked")
	}
	if tr.AllDone() {
		t.Fatal("tree done with real tasks outstanding")
	}
	for i := 0; i < 7; i++ {
		tr.MarkLeaf(i)
	}
	if !tr.AllDone() {
		t.Fatal("tree not done after all real tasks performed")
	}

	// Exact power: no padding.
	tr, pad = NewForTasks(2, 8)
	if pad != 0 || tr.Leaves() != 8 {
		t.Fatalf("NewForTasks(2,8): leaves=%d pad=%d", tr.Leaves(), pad)
	}
}

func TestMergeMonotoneCommutativeIdempotent(t *testing.T) {
	mk := func(leaves ...int) *Tree {
		tr := New(2, 3)
		for _, l := range leaves {
			tr.MarkLeaf(l)
		}
		return tr
	}
	a := mk(0, 1, 2)
	b := mk(3, 4, 5)

	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	for i := 0; i < ab.Size(); i++ {
		if ab.Done(i) != ba.Done(i) {
			t.Fatalf("merge not commutative at node %d", i)
		}
	}

	again := ab.Clone()
	again.Merge(b)
	for i := 0; i < ab.Size(); i++ {
		if again.Done(i) != ab.Done(i) {
			t.Fatalf("merge not idempotent at node %d", i)
		}
	}

	// Left subtree (leaves 0..3) complete after merge → interior closure.
	ab.MarkLeaf(3)
	left := ab.Child(ab.Root(), 0)
	if !ab.Done(left) {
		t.Fatal("merge + mark did not close interior node")
	}
	if bad := ab.CheckInvariant(); bad != -1 {
		t.Fatalf("invariant violated at node %d", bad)
	}
}

func TestMergeBitsClosesInterior(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	a.MarkLeaf(0)
	a.MarkLeaf(1)
	b.MarkLeaf(2)
	b.MarkLeaf(3)
	a.MergeBits(b.Snapshot())
	if !a.AllDone() {
		t.Fatal("merging complementary halves should complete the tree")
	}
}

func TestMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 2).Merge(New(3, 2))
}

func TestSnapshotIsCopy(t *testing.T) {
	tr := New(2, 1)
	s := tr.Snapshot()
	s[0] = true
	if tr.AllDone() {
		t.Fatal("Snapshot shares memory with tree")
	}
}

func TestCountDoneLeaves(t *testing.T) {
	tr := New(3, 2)
	if tr.CountDoneLeaves() != 0 {
		t.Fatal("fresh tree has done leaves")
	}
	tr.MarkLeaf(4)
	tr.MarkLeaf(7)
	if got := tr.CountDoneLeaves(); got != 2 {
		t.Fatalf("CountDoneLeaves = %d, want 2", got)
	}
}

// Property: marking any set of leaves in any order yields a tree where the
// interior invariant holds and AllDone ⇔ all leaves marked.
func TestQuickMarkInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(qRaw, hRaw uint8, seed int64) bool {
		q := int(qRaw%3) + 2 // 2..4
		h := int(hRaw%3) + 1 // 1..3
		tr := New(q, h)
		rr := rand.New(rand.NewSource(seed))
		order := rr.Perm(tr.Leaves())
		k := rr.Intn(tr.Leaves() + 1)
		for _, l := range order[:k] {
			tr.MarkLeaf(l)
		}
		if tr.CheckInvariant() != -1 {
			return false
		}
		return tr.AllDone() == (k == tr.Leaves())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two randomly marked replicas equals marking the union.
func TestQuickMergeIsUnion(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		q, h := 2, 3
		a, b, u := New(q, h), New(q, h), New(q, h)
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		for i := 0; i < a.Leaves(); i++ {
			if ra.Intn(2) == 1 {
				a.MarkLeaf(i)
				u.MarkLeaf(i)
			}
			if rb.Intn(2) == 1 {
				b.MarkLeaf(i)
				u.MarkLeaf(i)
			}
		}
		a.Merge(b)
		for n := 0; n < a.Size(); n++ {
			if a.Done(n) != u.Done(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestVersionedTreeMatchesPlain drives identical mark/merge sequences
// through a plain tree and a versioned one: node bits must stay equal,
// and the versioned tree's snapshots must materialize them exactly.
func TestVersionedTreeMatchesPlain(t *testing.T) {
	plain, padP := NewForTasks(3, 14)
	vers, padV := NewForTasksVersioned(3, 14)
	if padP != padV {
		t.Fatalf("padding differs: %d vs %d", padP, padV)
	}
	if vers.Versioned() == nil || plain.Versioned() != nil {
		t.Fatal("Versioned() wiring wrong")
	}
	order := []int{0, 5, 2, 9, 13, 1, 7, 3, 11, 6, 12, 4, 10, 8}
	for i, leaf := range order {
		plain.MarkLeaf(leaf)
		vers.MarkLeaf(leaf)
		snap := vers.Versioned().Snapshot()
		got := bitset.New(vers.Size())
		snap.Materialize(got)
		for n := 0; n < plain.Size(); n++ {
			if plain.Done(n) != vers.Done(n) {
				t.Fatalf("step %d: node %d plain=%v versioned=%v", i, n, plain.Done(n), vers.Done(n))
			}
			if got.Get(n) != vers.Done(n) {
				t.Fatalf("step %d: snapshot bit %d = %v, tree = %v", i, n, got.Get(n), vers.Done(n))
			}
		}
		if inv := vers.CheckInvariant(); inv != -1 {
			t.Fatalf("step %d: closure invariant violated at %d", i, inv)
		}
		vers.Versioned().Recycle(snap)
	}
	if !vers.AllDone() {
		t.Fatal("versioned tree did not close the root")
	}
	vers.ResetPadded(14)
	if vers.AllDone() || vers.Versioned().Ver() != 0 {
		t.Fatal("ResetPadded did not restart the versioned tree")
	}
}

// mergeDelta ORs raw into tr the way DA merges a snapshot — collecting
// each word's newly set bits — and closes from those deltas.
func mergeDelta(tr *Tree, raw *bitset.Set) {
	var deltas []bitset.DeltaWord
	if tr.vers != nil {
		_, deltas = tr.vers.UnionWithCollect(raw, nil)
	} else {
		for i, w := range raw.Words() {
			if neu := tr.done.OrWord(i, w); neu != 0 {
				deltas = append(deltas, bitset.DeltaWord{Index: int32(i), Word: neu})
			}
		}
	}
	tr.Close(deltas)
}

// nodesSet is a raw bit set of tr's shape with the given nodes set.
func nodesSet(tr *Tree, nodes ...int) *bitset.Set {
	raw := bitset.New(tr.Size())
	for _, n := range nodes {
		raw.Set(n)
	}
	return raw
}

// scratchEmpty reports whether Close left its worklist and candidates
// clear, as every call must.
func scratchEmpty(tr *Tree) bool {
	for _, w := range tr.work {
		if w != 0 {
			return false
		}
	}
	for _, w := range tr.cand {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestCloseEqualsRecompute merges random delta words — leaves, whole
// closed subtrees as a peer would send them, and bare interior bits — and
// requires Close to reach the same node bits as the bottom-up per-child
// recompute after every merge. The shapes put the node array on 1 to 68
// words, so parents sit in word 0, in the word below their children and
// across word boundaries.
func TestCloseEqualsRecompute(t *testing.T) {
	shapes := []struct{ q, h int }{
		{2, 0}, {2, 1}, {2, 5}, {2, 6}, {2, 7}, {2, 8}, {2, 10},
		{3, 3}, {3, 4}, {3, 5}, {3, 6},
		{4, 2}, {4, 3}, {4, 4}, {4, 5},
		{7, 2}, {7, 3},
		{64, 1}, {64, 2},
		{65, 1}, {65, 2},
	}
	r := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		for trial := 0; trial < 6; trial++ {
			var tr *Tree
			if trial%2 == 0 {
				tr = New(sh.q, sh.h)
			} else {
				tr = NewVersioned(sh.q, sh.h)
			}
			ref := &refTree{q: sh.q, size: tr.Size(), firstLeaf: tr.Size() - tr.Leaves(), done: make([]bool, tr.Size())}
			for round := 0; !ref.done[0] && round < 200; round++ {
				raw := bitset.New(tr.Size())
				set := func(n int) {
					raw.Set(n)
					ref.done[n] = true
				}
				for k := r.Intn(1 + tr.Leaves()/4); k >= 0; k-- {
					set(tr.LeafNode(r.Intn(tr.Leaves())))
				}
				if ref.firstLeaf > 0 && r.Intn(3) == 0 {
					// A closed subtree: an interior node and all below it.
					stack := []int{r.Intn(ref.firstLeaf)}
					for len(stack) > 0 {
						n := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						set(n)
						for c := 0; c < sh.q && !tr.IsLeaf(n); c++ {
							stack = append(stack, tr.Child(n, c))
						}
					}
				}
				if ref.firstLeaf > 0 && r.Intn(8) == 0 {
					set(r.Intn(ref.firstLeaf))
				}
				mergeDelta(tr, raw)
				ref.recompute()
				if !ref.equal(tr) {
					t.Fatalf("q=%d h=%d trial %d round %d: Close diverged from the recompute", sh.q, sh.h, trial, round)
				}
				if !scratchEmpty(tr) {
					t.Fatalf("q=%d h=%d trial %d round %d: Close left its scratch dirty", sh.q, sh.h, trial, round)
				}
			}
		}
	}
}

// TestCloseRevisitsWordZero closes a binary tree whose nodes all sit in
// word 0, where every parent shares its children's word: one merge of all
// leaves must close every level up to the root.
func TestCloseRevisitsWordZero(t *testing.T) {
	tr := NewVersioned(2, 5) // 63 nodes
	var leaves []int
	for i := 0; i < tr.Leaves(); i++ {
		leaves = append(leaves, tr.LeafNode(i))
	}
	mergeDelta(tr, nodesSet(tr, leaves...))
	if !tr.AllDone() || tr.CheckInvariant() != -1 {
		t.Fatalf("root closed=%v, invariant broken at %d", tr.AllDone(), tr.CheckInvariant())
	}
}

// TestCloseEvenWordBitZero closes through bit 0 of an even word k, whose
// parent ends word k/2−1: leaf 512 (word 8, bit 0) completes node 255
// (word 3, bit 63) once its sibling 511 is done.
func TestCloseEvenWordBitZero(t *testing.T) {
	for _, k := range []int{8, 10, 14} {
		tr := New(2, 9) // 1023 nodes in words 0–15; leaves from 511
		n := 64 * k
		mergeDelta(tr, nodesSet(tr, n-1))
		if tr.Done(tr.Parent(n)) {
			t.Fatalf("k=%d: parent %d closed with one child done", k, tr.Parent(n))
		}
		mergeDelta(tr, nodesSet(tr, n))
		if !tr.Done(tr.Parent(n)) {
			t.Fatalf("k=%d: bit 0 of word %d did not close parent %d", k, k, tr.Parent(n))
		}
		if inv := tr.CheckInvariant(); inv != -1 {
			t.Fatalf("k=%d: invariant broken at %d", k, inv)
		}
	}
}

// TestCloseOnCloneLeavesOriginal closes a clone while the original must
// keep its bits and its own, untouched Close scratch — the property
// stage-det relies on when it steps cloned machines.
func TestCloseOnCloneLeavesOriginal(t *testing.T) {
	for _, q := range []int{2, 3} {
		tr, _ := NewForTasksVersioned(q, 200)
		mergeDelta(tr, nodesSet(tr, tr.LeafNode(0), tr.LeafNode(5)))
		before := tr.SnapshotSet()
		c := tr.Clone()
		if &c.work[0] == &tr.work[0] || (tr.cand != nil && &c.cand[0] == &tr.cand[0]) {
			t.Fatalf("q=%d: clone shares the original's Close scratch", q)
		}
		var leaves []int
		for i := 0; i < c.Leaves(); i++ {
			leaves = append(leaves, c.LeafNode(i))
		}
		mergeDelta(c, nodesSet(c, leaves...))
		if !c.AllDone() {
			t.Fatalf("q=%d: clone did not close its root", q)
		}
		if !tr.SnapshotSet().Equal(before) || !scratchEmpty(tr) {
			t.Fatalf("q=%d: closing the clone changed the original", q)
		}
	}
}

// refTree is the closure reference: node bits as a []bool, the per-child
// loop the word-window test replaced, and the bottom-up recompute.
type refTree struct {
	q, size, firstLeaf int
	done               []bool
}

func (r *refTree) childrenDone(n int) bool {
	for c := 0; c < r.q; c++ {
		if !r.done[r.q*n+1+c] {
			return false
		}
	}
	return true
}

func (r *refTree) parent(n int) int {
	if n == 0 {
		return -1
	}
	return (n - 1) / r.q
}

func (r *refTree) propagate(n int) {
	for n >= 0 && !r.done[n] && r.childrenDone(n) {
		r.done[n] = true
		n = r.parent(n)
	}
}

func (r *refTree) recompute() {
	for n := r.firstLeaf - 1; n >= 0; n-- {
		if !r.done[n] && r.childrenDone(n) {
			r.done[n] = true
		}
	}
}

func (r *refTree) equal(t *Tree) bool {
	for n, v := range r.done {
		if t.Done(n) != v {
			return false
		}
	}
	return true
}

// TestClosureMatchesPerChildLoop drives the tree's closure and the
// per-child reference loop through the same leaf marks, merged single node
// bits closed by Close, and raw-bit merges, and requires identical node
// bits after every operation. Arities 64 and 65 make a node's child
// window span one and two words; 2, 3, 4 and 7 keep it inside one.
func TestClosureMatchesPerChildLoop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, q := range []int{2, 3, 4, 7, 64, 65} {
		h := 3
		if q >= 64 {
			h = 2
		}
		for trial := 0; trial < 4; trial++ {
			tr := NewVersioned(q, h)
			ref := &refTree{q: q, size: tr.Size(), firstLeaf: tr.Size() - tr.Leaves(), done: make([]bool, tr.Size())}
			// Mark leaves in random order; occasionally merge an interior
			// node's bit alone (a merged snapshot bit) and close from it.
			for _, i := range r.Perm(tr.Leaves()) {
				if r.Intn(8) == 0 {
					n := r.Intn(ref.firstLeaf)
					mergeDelta(tr, nodesSet(tr, n))
					ref.done[n] = true
					ref.propagate(ref.parent(n))
				} else {
					tr.MarkLeaf(i)
					n := tr.LeafNode(i)
					ref.done[n] = true
					ref.propagate(ref.parent(n))
				}
				if !ref.equal(tr) {
					t.Fatalf("q=%d trial %d: closure diverged from the per-child loop", q, trial)
				}
			}
			// Merge raw leaf bits into a fresh tree — every leaf under
			// even-numbered parents, most of the others — so closures occur
			// at every arity; the bottom-up recompute must agree too.
			fresh := New(q, h)
			raw := bitset.New(fresh.Size())
			ref = &refTree{q: q, size: fresh.Size(), firstLeaf: fresh.Size() - fresh.Leaves(), done: make([]bool, fresh.Size())}
			for n := 0; n < fresh.Size(); n++ {
				if n >= ref.firstLeaf && (ref.parent(n)%2 == 0 || r.Intn(20) != 0) {
					raw.Set(n)
					ref.done[n] = true
				}
			}
			fresh.MergeSet(raw)
			ref.recompute()
			if !ref.equal(fresh) {
				t.Fatalf("q=%d trial %d: recompute diverged from the per-child loop", q, trial)
			}
			if fresh.CheckInvariant() != -1 {
				t.Fatalf("q=%d trial %d: recompute left the invariant broken", q, trial)
			}
		}
	}
}

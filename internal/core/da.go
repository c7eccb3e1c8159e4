package core

import (
	"fmt"

	"doall/internal/bitset"
	"doall/internal/perm"
	"doall/internal/sim"
	"doall/internal/tree"
)

// DA implements one processor of algorithm DA(q) (Section 5, Fig. 3): a
// message-passing re-interpretation of the Anderson–Woll shared-memory
// algorithm. Each processor holds a *replica* of a q-ary boolean progress
// tree with the jobs at its leaves. It traverses the tree in post-order,
// choosing the visiting order of the q subtrees of a depth-m node with the
// permutation π_{x[m]} ∈ Σ selected by the m-th q-ary digit x[m] of its
// pid. Instead of writing to shared memory it multicasts its tree whenever
// it completes a leaf or closes an interior node; received trees are
// merged monotonically into the replica, pruning the traversal.
//
// The replica's node bits are an epoch-versioned set: a broadcast is an
// immutable base-plus-delta-chain snapshot (O(changed words), not
// O(nodes)), received snapshots merge through a per-sender version
// cursor, and the interior-closure invariant is restored a word of
// parents at a time from the newly merged bits instead of by an O(nodes)
// recompute — per-delivery cost proportional to the new knowledge.
//
// Work is O(t·p^ε + p·min{t,d}·⌈t/d⌉^ε) for a suitable constant q and a
// low-contention Σ (Theorems 5.4, 5.5); messages are O(p·W) (Theorem 5.6).
type DA struct {
	pid    int
	q      int
	perms  perm.List // q permutations of [q]
	digits []int     // q-ary digits of pid, digits[m] used at depth m
	tree   *tree.Tree
	vers   *bitset.Versioned // the tree's versioned node bits
	mg     *bitset.Merger    // per-sender version cursor
	jobs   Jobs
	stack  []daFrame
	unit   int // tasks of the current leaf's job already performed
	halted bool
	// scratch collects merged delta words for closure propagation.
	scratch []bitset.DeltaWord
	comb    combinedPool // pooled batch accumulators
}

type daFrame struct {
	node  int
	depth int
	next  int // next ordinal (0..q) into the permutation at this depth
}

var (
	_ sim.Machine         = (*DA)(nil)
	_ sim.BatchConsumer   = (*DA)(nil)
	_ sim.TaskIntender    = (*DA)(nil)
	_ sim.Cloner          = (*DA)(nil)
	_ sim.Resetter        = (*DA)(nil)
	_ sim.Rejoiner        = (*DA)(nil)
	_ sim.PayloadRecycler = (*DA)(nil)
)

// DAConfig parameterizes the DA(q) family.
type DAConfig struct {
	P int // processors
	T int // tasks
	Q int // tree arity, 2 ≤ Q
	// Perms is the schedule list Σ: Q permutations of [Q]. If nil, a
	// low-contention list is required from the caller; use
	// perm.FindLowContentionList or perm.RotationList.
	Perms perm.List
}

// NewDA builds the p machines of algorithm DA(q).
func NewDA(cfg DAConfig) ([]sim.Machine, error) {
	if cfg.Q < 2 {
		return nil, fmt.Errorf("core: DA requires q ≥ 2, got %d", cfg.Q)
	}
	if len(cfg.Perms) != cfg.Q || cfg.Perms.N() != cfg.Q {
		return nil, fmt.Errorf("core: DA requires %d permutations of [%d], got %d of [%d]",
			cfg.Q, cfg.Q, len(cfg.Perms), cfg.Perms.N())
	}
	if err := perm.CheckList(cfg.Perms); err != nil {
		return nil, err
	}
	if cfg.P < 1 || cfg.T < 1 {
		return nil, fmt.Errorf("core: DA requires p ≥ 1 and t ≥ 1")
	}
	jobs := NewJobs(cfg.P, cfg.T)
	ms := make([]sim.Machine, cfg.P)
	for i := range ms {
		tr, _ := tree.NewForTasksVersioned(cfg.Q, jobs.N)
		m := &DA{
			pid:    i,
			q:      cfg.Q,
			perms:  cfg.Perms,
			digits: qDigits(i, cfg.Q, tr.Height()),
			tree:   tr,
			vers:   tr.Versioned(),
			mg:     bitset.NewMerger(cfg.P),
			jobs:   jobs,
		}
		m.stack = append(m.stack, daFrame{node: tr.Root(), depth: 0})
		ms[i] = m
	}
	return ms, nil
}

// qDigits returns the h least-significant base-q digits of pid, least
// significant first: digits[m] is used at tree depth m.
func qDigits(pid, q, h int) []int {
	d := make([]int, h)
	for m := 0; m < h; m++ {
		d[m] = pid % q
		pid /= q
	}
	return d
}

// Step implements sim.Machine. Each step merges pending messages (one work
// unit covers processing all of them, per the model) and then advances the
// traversal by one micro-operation: skip a finished subtree, descend into
// a child, perform one task of a leaf job, or close a node and multicast.
func (m *DA) Step(now int64, inbox []sim.Delivery) sim.StepResult {
	m.merge(inbox)
	return m.advance()
}

// StepBatched implements sim.BatchConsumer; see PA.StepBatched.
func (m *DA) StepBatched(now int64, batches []*sim.Batch, tail []sim.Delivery) sim.StepResult {
	for _, b := range batches {
		m.mergeBatch(b)
	}
	m.merge(tail)
	return m.advance()
}

// advance is the post-merge traversal body.
func (m *DA) advance() sim.StepResult {
	for {
		if len(m.stack) == 0 {
			// Traversal finished ⇒ root is marked ⇒ all tasks done.
			m.halted = true
			return sim.StepResult{Halt: true}
		}
		f := &m.stack[len(m.stack)-1]

		// A node completed by others (via merge) is popped for free: the
		// pruning happens during message processing already paid for. A
		// leaf whose job a peer finished is abandoned even mid-job.
		if m.tree.Done(f.node) {
			m.stack = m.stack[:len(m.stack)-1]
			m.unit = 0
			continue
		}

		if m.tree.IsLeaf(f.node) {
			// Perform the next task of this leaf's job.
			job := m.tree.LeafIndex(f.node)
			z := m.jobs.Start(job) + m.unit
			m.unit++
			if m.unit >= m.jobs.Size(job) {
				m.unit = 0
				m.tree.MarkLeaf(job)
				m.stack = m.stack[:len(m.stack)-1]
				r := sim.StepResult{Broadcast: m.snapshot()}
				r.Perform(z)
				return r
			}
			return sim.PerformStep(z)
		}

		// Interior node: descend into the next not-done child in the
		// order given by π_{x[depth]}, or close the node if exhausted.
		if f.next < m.q {
			ord := m.perms[m.digits[f.depth]]
			child := m.tree.Child(f.node, ord[f.next])
			f.next++
			if !m.tree.Done(child) {
				m.stack = append(m.stack, daFrame{node: child, depth: f.depth + 1})
				return sim.StepResult{} // one unit of traversal overhead
			}
			continue // skipping a done child is part of message processing
		}

		// All children done: close this node and share the news.
		m.tree.Mark(f.node)
		m.stack = m.stack[:len(m.stack)-1]
		halt := m.tree.AllDone() && len(m.stack) == 0
		m.halted = halt
		return sim.StepResult{Broadcast: m.snapshot(), Halt: halt}
	}
}

// merge applies received tree snapshots to the local replica: only the
// chain suffix the sender's version cursor says is new, with closure
// restored from the merged bits (propagateChanges).
func (m *DA) merge(inbox []sim.Delivery) {
	for _, msg := range inbox {
		snap, ok := msg.Payload().(TreeSnapshot)
		if !ok || snap.S.Len() != m.tree.Size() {
			continue
		}
		m.scratch = m.scratch[:0]
		_, m.scratch = m.mg.MergeCollect(m.vers, msg.From(), snap.S, m.scratch)
		m.propagateChanges()
	}
}

// mergeBatch folds one shared delivery group into the replica; see
// PA.mergeBatch for the cache protocol.
func (m *DA) mergeBatch(b *sim.Batch) {
	if kc, ok := b.Combined.(*knowledgeCombined); ok {
		if kc.n == m.tree.Size() {
			m.applyCombined(kc)
		} else {
			m.mergeBatchEager(b)
		}
		return
	}
	if b.Combined != nil {
		m.mergeBatchEager(b)
		return
	}
	if !m.BuildCombined(b) {
		m.mergeBatchEager(b)
		return
	}
	m.applyCombined(b.Combined.(*knowledgeCombined))
}

// BuildCombined implements sim.BatchConsumer; see PA.BuildCombined.
// The accumulation reads only the merge cursors and the batch's
// immutable tree snapshots — never the replica — so building ahead of
// the step and applying at the step is state-for-state identical to the
// sequential in-step build (closure propagation happens at apply time in
// both flows).
func (m *DA) BuildCombined(b *sim.Batch) bool {
	kc := m.comb.get(m.tree.Size())
	for _, mc := range b.MCs {
		ts, ok := mc.Payload.(TreeSnapshot)
		if !ok || ts.S.Len() != m.tree.Size() {
			m.comb.put(kc)
			return false
		}
		var dense bool
		kc.idxs, dense = m.mg.AccumulateInto(kc.bits, mc.From, ts.S, kc.idxs)
		kc.dense = kc.dense || dense
	}
	for _, mc := range b.MCs {
		m.mg.Note(mc.From, mc.Payload.(TreeSnapshot).S.Ver())
	}
	if 2*len(kc.idxs) >= len(kc.bits.Words()) {
		kc.dense = true
	}
	b.Combined, b.Builder = kc, int32(m.pid)
	return true
}

func (m *DA) applyCombined(kc *knowledgeCombined) {
	m.scratch = m.scratch[:0]
	if kc.dense {
		_, m.scratch = m.vers.UnionWithCollect(kc.bits, m.scratch)
	} else {
		_, m.scratch = m.vers.MergeWordsCollect(kc.bits, kc.idxs, m.scratch)
	}
	m.propagateChanges()
}

func (m *DA) mergeBatchEager(b *sim.Batch) {
	for _, mc := range b.MCs {
		if mc.From == m.pid {
			continue
		}
		ts, ok := mc.Payload.(TreeSnapshot)
		if !ok || ts.S.Len() != m.tree.Size() {
			continue
		}
		m.scratch = m.scratch[:0]
		_, m.scratch = m.mg.MergeCollect(m.vers, mc.From, ts.S, m.scratch)
		m.propagateChanges()
	}
}

// propagateChanges restores the interior-closure invariant after the last
// merge, whose newly set bits scratch holds as word deltas. Tree.Close
// visits only the parent words of those bits — an interior node's children
// can only become all-done when one of them is new — and closes a word of
// parents at a time, so the result equals the bottom-up recompute at
// new-knowledge cost.
func (m *DA) propagateChanges() { m.tree.Close(m.scratch) }

// snapshot captures the progress tree for a broadcast: an O(changed
// words) versioned snapshot sharing the epoch base.
func (m *DA) snapshot() TreeSnapshot {
	return TreeSnapshot{S: m.vers.Snapshot()}
}

// RecyclePayload implements sim.PayloadRecycler; see PA.RecyclePayload.
func (m *DA) RecyclePayload(p any) {
	switch v := p.(type) {
	case TreeSnapshot:
		m.vers.Recycle(v.S)
	case *knowledgeCombined:
		m.comb.put(v)
	}
}

// KnowsAllDone implements sim.Machine.
func (m *DA) KnowsAllDone() bool { return m.tree.AllDone() }

// NextTask implements sim.TaskIntender: the task the next Step would
// perform, ignoring yet-undelivered messages, or -1 if the next step is
// pure traversal. It mirrors Step's control flow read-only, walking the
// stack in place: done frames are popped for free, a leaf on top performs
// its next task, and any other interior frame makes the next step descend
// into a child or close the node — neither performs a task.
func (m *DA) NextTask() int {
	unit := m.unit
	for i := len(m.stack) - 1; i >= 0; i-- {
		n := m.stack[i].node
		if m.tree.Done(n) {
			unit = 0
			continue
		}
		if m.tree.IsLeaf(n) {
			return m.jobs.Start(m.tree.LeafIndex(n)) + unit
		}
		return -1
	}
	return -1
}

// CloneMachine implements sim.Cloner (DA is deterministic).
func (m *DA) CloneMachine() sim.Machine {
	c := *m
	c.tree = m.tree.Clone()
	c.vers = c.tree.Versioned()
	c.mg = m.mg.Clone()
	c.stack = append([]daFrame(nil), m.stack...)
	c.scratch = nil
	c.comb = combinedPool{} // pooled buffers stay with the original
	// digits and perms are immutable; share them.
	return &c
}

// Reset implements sim.Resetter: the machine returns to its initial state
// without allocating (the snapshot and accumulator pools and stack
// capacity are kept), after which it replays the exact same traversal.
func (m *DA) Reset() {
	m.tree.ResetPadded(m.jobs.N)
	m.mg.Reset()
	m.stack = m.stack[:0]
	m.stack = append(m.stack, daFrame{node: m.tree.Root(), depth: 0})
	m.unit = 0
	m.halted = false
}

// Rejoin implements sim.Rejoiner: crash-restart re-entry with a fresh
// replica. The tree rejoins through the versioned set (versions stay
// monotone, padding leaves re-marked, the next broadcast is a full
// rebase — in-flight pre-crash snapshots stay valid), the per-sender
// cursors are zeroed, and the traversal restarts at the root with the
// same deterministic permutation digits.
func (m *DA) Rejoin() {
	m.tree.RejoinPadded(m.jobs.N)
	m.mg.Reset()
	m.stack = m.stack[:0]
	m.stack = append(m.stack, daFrame{node: m.tree.Root(), depth: 0})
	m.unit = 0
	m.halted = false
}

// Halted reports whether the machine has voluntarily halted.
func (m *DA) Halted() bool { return m.halted }

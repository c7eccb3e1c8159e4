package core

import (
	"fmt"
	"math/rand"
	"sync"

	"doall/internal/bitset"
	"doall/internal/perm"
	"doall/internal/sim"
)

// PA implements one processor of the permutation algorithms of Section 6
// (Fig. 4). The processor keeps a local set of jobs known to be done;
// while it has not ascertained that all jobs are complete it selects the
// next not-known-done job according to its Selector, performs it (one task
// per local step), marks it done, and multicasts its done-set. Received
// done-sets are merged (a monotone union, charged to the step that
// consumes them).
//
// The done-set is an epoch-versioned bit set (bitset.Versioned): each
// broadcast snapshots it as an immutable base-plus-delta-chain share, so
// a broadcast costs words-changed, not words-total, and a received
// snapshot is merged whole (base, then chain). Under the engine's grouped
// delivery path (sim.BatchConsumer) a whole delivery group is merged as
// one combined union, built once per group when it forms from only the
// knowledge its consumers lack (the knowledge plane it shares with DA).
//
// The three family members differ only in the Selector:
//
//   - PaRan1: a permutation of the jobs drawn uniformly at random at
//     start-up (Order = random, Select = next by local permutation).
//   - PaRan2: each selection is uniform over the jobs not yet known done.
//   - PaDet: a fixed schedule list Σ with low d-contention (Corollary 4.5);
//     processor pid follows π_pid.
//
// Expected (worst-case for PaDet with a suitable Σ) work is
// O(t·log p + p·min{t,d}·log(2+t/d)) — Theorems 6.2 and 6.3.
type PA struct {
	knowledge // vers is the done job set (known complete)
	jobs      Jobs
	remain    int // jobs not known complete
	selector  selector
	cur       int // current job, -1 if none selected
	unit      int // tasks of current job already performed
	halted    bool
}

// selector abstracts the Order+Select specializations of Fig. 4.
type selector interface {
	// next returns the next job to perform given the done-set, or -1 if
	// every job is known done. It must not return a done job.
	next(done *bitset.Set) int
	// clone returns a deep copy, or nil if the selector is not cloneable
	// (PaRan2's on-line randomness).
	clone() selector
	// reset restores the selector's initial position. With replay the
	// selector's randomness restarts from its seed as well (Reset: the
	// trial replays); without it the random stream continues (Rejoin: a
	// restarted processor keeps drawing fresh choices).
	reset(replay bool)
}

var (
	_ sim.Machine         = (*PA)(nil)
	_ sim.BatchConsumer   = (*PA)(nil)
	_ sim.TaskIntender    = (*PA)(nil)
	_ sim.Resetter        = (*PA)(nil)
	_ sim.Rejoiner        = (*PA)(nil)
	_ sim.PayloadRecycler = (*PA)(nil)
)

// permSelector walks a fixed permutation of the jobs (PaRan1, PaDet).
// Entries are int32, half the backing of ints: a job index is below p.
type permSelector struct {
	order []int32
	pos   int
}

func (s *permSelector) next(done *bitset.Set) int {
	for s.pos < len(s.order) {
		j := int(s.order[s.pos])
		if !done.Get(j) {
			return j
		}
		s.pos++
	}
	return -1
}

func (s *permSelector) clone() selector {
	c := *s
	return &c
}

func (s *permSelector) reset(bool) { s.pos = 0 }

// randSelector draws uniformly among not-known-done jobs (PaRan2). It
// commits to its next draw so that an adaptive adversary may observe it
// (sim.TaskIntender), exactly the knowledge model of Theorem 3.4. A draw
// picks a rank k uniformly below the number of undone jobs and selects the
// k-th clear bit of the done-set: two passes over its words (a popcount
// and a rank/select), no allocation, and the same job the k-th entry of
// an ascending list of undone jobs would name.
type randSelector struct {
	rng       *rand.Rand
	seed      int64 // rng's source seed, restored by a replaying reset
	committed int   // -1 when no commitment
}

func (s *randSelector) next(done *bitset.Set) int {
	if s.committed >= 0 && !done.Get(s.committed) {
		return s.committed
	}
	n := done.Len() - done.Count()
	if n == 0 {
		s.committed = -1
		return -1
	}
	s.committed = done.NthClear(s.rng.Intn(n))
	return s.committed
}

func (s *randSelector) clone() selector { return nil }

// reset drops the commitment and, with replay, re-seeds the source:
// Seed fully reinitializes it, so the stream restarts exactly as a fresh
// rand.NewSource(seed) would.
func (s *randSelector) reset(replay bool) {
	if replay {
		s.rng.Seed(s.seed)
	}
	s.committed = -1
}

// NewPaRan1 builds the p machines of algorithm PaRan1 for t tasks; each
// processor draws its job permutation from a rand source seeded with
// seed+pid, so runs are reproducible. It builds serially; see
// NewPaRan1Sharded.
func NewPaRan1(p, t int, seed int64) []sim.Machine { return NewPaRan1Sharded(p, t, seed, 1) }

// NewPaRan1Sharded is NewPaRan1 with the per-processor builds fanned out
// over `shards` goroutines (inline for shards ≤ 1). A processor's
// permutation depends on seed+pid alone, so every shard count builds
// identical machines.
//
// Each permutation is the one math/rand's Perm draws from
// rand.NewSource(seed+pid), drawn by perm.Shuffler straight from a
// perm.Source: no interface call or division per draw, and a
// division-free seed.
func NewPaRan1Sharded(p, t int, seed int64, shards int) []sim.Machine {
	jobs := NewJobs(p, t)
	ms := make([]sim.Machine, p)
	sh := perm.NewShuffler(jobs.N)
	fanOut(p, shards, func(lo, hi int) {
		// A shard's permutations share one int32 backing array
		// (pointer-free, one allocation per build shard), allocated and so
		// zeroed by the shard itself rather than by one goroutine for all.
		// One source per shard, re-seeded per processor: Seed fully
		// reinitializes the generator.
		backing := make([]int32, (hi-lo)*jobs.N)
		var src perm.Source
		for i := lo; i < hi; i++ {
			src.Seed(seed + int64(i))
			order := sh.Into(&src, backing[(i-lo)*jobs.N:])
			ms[i] = newPA(i, jobs, &permSelector{order: order})
		}
	})
	return ms
}

// NewPaRan2 builds the p machines of algorithm PaRan2 for t tasks; each
// processor's selector draws from a rand source seeded with seed+pid. It
// builds serially; see NewPaRan2Sharded.
func NewPaRan2(p, t int, seed int64) []sim.Machine { return NewPaRan2Sharded(p, t, seed, 1) }

// NewPaRan2Sharded is NewPaRan2 with the per-processor source seeding
// fanned out over `shards` goroutines (inline for shards ≤ 1); every shard
// count builds identical machines. The sources are perm.Sources held in
// one backing slice per build shard, allocated by the shard, each wrapped
// in a rand.Rand: the same stream as rand.NewSource(seed+pid), seeded
// without a division.
func NewPaRan2Sharded(p, t int, seed int64, shards int) []sim.Machine {
	jobs := NewJobs(p, t)
	ms := make([]sim.Machine, p)
	fanOut(p, shards, func(lo, hi int) {
		srcs := make([]perm.Source, hi-lo)
		for i := lo; i < hi; i++ {
			src := &srcs[i-lo]
			src.Seed(seed + int64(i))
			r := rand.New(src)
			ms[i] = newPA(i, jobs, &randSelector{rng: r, seed: seed + int64(i), committed: -1})
		}
	})
	return ms
}

// fanOut calls build on `shards` contiguous ranges covering [0, p), one
// goroutine each, and waits for all of them; with one shard (or fewer) it
// calls build(0, p) inline.
func fanOut(p, shards int, build func(lo, hi int)) {
	shards = min(shards, p)
	if shards <= 1 {
		build(0, p)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*p/shards, (s+1)*p/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(lo, hi)
		}()
	}
	wg.Wait()
}

// NewPaDet builds the p machines of algorithm PaDet for t tasks using the
// schedule list l (p permutations of the job set; processor i follows
// l[i mod len(l)]).
func NewPaDet(p, t int, l perm.List) ([]sim.Machine, error) {
	jobs := NewJobs(p, t)
	if l.N() != jobs.N {
		return nil, fmt.Errorf("core: PaDet schedules are over [%d], want [%d] (jobs)", l.N(), jobs.N)
	}
	if len(l) == 0 {
		return nil, fmt.Errorf("core: PaDet requires a non-empty schedule list")
	}
	if err := perm.CheckList(l); err != nil {
		return nil, err
	}
	orders := int32Orders(l)
	ms := make([]sim.Machine, p)
	for i := range ms {
		ms[i] = newPA(i, jobs, &permSelector{order: orders[i%len(l)]})
	}
	return ms, nil
}

// int32Orders copies the permutations of l into one int32 backing.
func int32Orders(l perm.List) [][]int32 {
	n := l.N()
	backing := make([]int32, len(l)*n)
	orders := make([][]int32, len(l))
	for u, pi := range l {
		o := backing[u*n : (u+1)*n : (u+1)*n]
		for i, v := range pi {
			o[i] = int32(v)
		}
		orders[u] = o
	}
	return orders
}

func newPA(pid int, jobs Jobs, sel selector) *PA {
	return &PA{
		knowledge: knowledge{pid: pid, vers: bitset.NewVersioned(jobs.N)},
		jobs:      jobs,
		remain:    jobs.N,
		selector:  sel,
		cur:       -1,
	}
}

// Step implements sim.Machine.
func (m *PA) Step(now int64, inbox []sim.Delivery) sim.StepResult {
	return m.StepBatched(now, nil, inbox)
}

// StepBatched implements sim.BatchConsumer: pending delivery groups are
// merged through the shared combined-knowledge cache (one union per
// group), the per-recipient tail individually. Most steps receive
// nothing, and skipping the merge call for them is measurable at p=256.
func (m *PA) StepBatched(now int64, batches []*sim.Batch, tail []sim.Delivery) sim.StepResult {
	learned := 0
	if len(batches) > 0 || len(tail) > 0 {
		learned = m.merge(batches, tail)
		m.remain -= learned
	}
	return m.advance(learned > 0)
}

// advance is the post-merge step body: select, perform, broadcast.
// learned reports that this step's merge set at least one bit.
func (m *PA) advance(learned bool) sim.StepResult {
	if m.remain == 0 {
		m.halted = true
		return sim.StepResult{Halt: true}
	}

	// (Re)select if we have no current job or a peer finished ours. The
	// current job was undone when selected, and only a merge can set its
	// bit (markDone clears cur, Reset and Rejoin set it to -1), so its
	// bit is re-read only after a merge that learned something.
	if m.cur < 0 || learned && m.vers.Get(m.cur) {
		m.cur = m.selector.next(m.vers.Bits())
		m.unit = 0
		if m.cur < 0 {
			m.halted = true
			return sim.StepResult{Halt: true}
		}
	}

	z := m.jobs.Start(m.cur) + m.unit
	m.unit++
	if m.unit < m.jobs.Size(m.cur) {
		return sim.PerformStep(z)
	}

	// Job complete: record, multicast the done-set, possibly halt.
	m.markDone(m.cur)
	m.cur = -1
	m.unit = 0
	halt := m.remain == 0
	m.halted = halt
	r := sim.StepResult{
		Broadcast: m.snapshot(),
		Halt:      halt,
	}
	r.Perform(z)
	return r
}

func (m *PA) markDone(j int) {
	if !m.vers.Get(j) {
		m.vers.Set(j)
		m.remain--
	}
}

// snapshot captures the done-set for a broadcast: an O(changed words)
// versioned snapshot sharing the epoch base, not a full copy.
func (m *PA) snapshot() DoneSet {
	return DoneSet{S: m.vers.Snapshot()}
}

// KnowsAllDone implements sim.Machine.
func (m *PA) KnowsAllDone() bool { return m.remain == 0 }

// NextTask implements sim.TaskIntender.
func (m *PA) NextTask() int {
	if m.remain == 0 {
		return -1
	}
	cur, unit := m.cur, m.unit
	if cur < 0 || m.vers.Get(cur) {
		cur = m.selector.next(m.vers.Bits())
		unit = 0
	}
	if cur < 0 {
		return -1
	}
	return m.jobs.Start(cur) + unit
}

// CloneMachine implements sim.Cloner for the deterministic members of the
// family (PaDet, and PaRan1 after its permutation is fixed). It returns
// nil for PaRan2, whose on-line randomness cannot be replayed; callers
// must type-assert accordingly.
func (m *PA) CloneMachine() sim.Machine {
	sel := m.selector.clone()
	if sel == nil {
		return nil
	}
	c := *m
	c.selector = sel
	c.knowledge = m.clone(m.vers.Clone())
	return &c
}

// Reset implements sim.Resetter: the machine returns to its initial state
// without allocating (the snapshot and accumulator pools are kept).
// Every member replays its first trial exactly: PaRan1 and PaDet restart
// their schedules, PaRan2 re-seeds its random source.
func (m *PA) Reset() {
	m.vers.Reset()
	m.remain = m.jobs.N
	m.selector.reset(true)
	m.cur = -1
	m.unit = 0
	m.halted = false
}

// Rejoin implements sim.Rejoiner: the machine re-enters after a
// crash-restart with fresh initial knowledge. Unlike Reset it runs
// mid-execution, while pre-crash done-set snapshots may still be in
// flight, so the versioned set rejoins instead of resetting — versions
// stay monotone and the next broadcast travels as a full rebase. The
// permutation position is re-seeded deterministically via the selector's
// reset; PaRan2's random stream continues.
func (m *PA) Rejoin() {
	m.vers.Rejoin()
	m.remain = m.jobs.N
	m.selector.reset(false)
	m.cur = -1
	m.unit = 0
	m.halted = false
}

// Halted reports whether the machine has voluntarily halted.
func (m *PA) Halted() bool { return m.halted }

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"doall/internal/bitset"
	"doall/internal/perm"
	"doall/internal/sim"
	"doall/internal/tree"
)

// Property tests for the versioned knowledge plane at the payload level:
// for random merge sequences with reordering, drops, and version gaps,
// merging through the algorithms' actual delivery paths (per-delivery and
// batched) must leave a receiver set-equal to the naive full-bitset union
// of every delivered payload's *meaning* — after every delivery, for both
// payload kinds (DoneSet for the PA family, TreeSnapshot for DA; AllToAll
// and ObliDo are messageless, so their payload kind is vacuous and their
// coverage is the engine equivalence suite).

// delivery wraps a queued payload with its sender.
type queued struct {
	from    int
	payload any
}

// senderPool steps a set of real machines to generate genuine payload
// sequences: machines mark their own progress and also merge each
// other's broadcasts (so snapshots carry rich multi-origin delta
// chains), and every broadcast is queued for the observer.
func pumpSenders(rng *rand.Rand, machines []sim.Machine, rounds int) []queued {
	var out []queued
	now := int64(0)
	for r := 0; r < rounds; r++ {
		for i, m := range machines {
			if h, ok := m.(interface{ Halted() bool }); ok && h.Halted() {
				continue
			}
			res := m.Step(now, nil)
			now++
			if res.Broadcast == nil {
				continue
			}
			out = append(out, queued{from: i, payload: res.Broadcast})
			// Cross-deliver to a random other sender so later snapshots
			// mix knowledge (and sender cursors advance unevenly).
			j := rng.Intn(len(machines))
			if j != i {
				machines[j].Step(now, []sim.Delivery{{
					MC: &sim.Multicast{From: i, SentAt: now, Payload: res.Broadcast},
				}})
				now++
			}
		}
	}
	return out
}

// shuffleDropPlan returns the delivery order with random drops: a random
// permutation of the queue (reordering) with ~1/4 of entries removed
// (version gaps).
func shuffleDropPlan(rng *rand.Rand, n int) []int {
	order := rng.Perm(n)
	var plan []int
	for _, i := range order {
		if rng.Intn(4) == 0 {
			continue
		}
		plan = append(plan, i)
	}
	return plan
}

// TestQuickDoneSetMergeMatchesNaive drives PA's actual merge paths
// (per delivery, and BuildCombined then the batch merge, with the test
// keeping the build watermarks the engine would) on a merge-only
// observer and compares, after every delivery, against the naive
// reference: materialize each DoneSet fully and union it in. The
// remain counter must match the naive added-bit count, too.
func TestQuickDoneSetMergeMatchesNaive(t *testing.T) {
	f := func(seed int64, pRaw, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + int(pRaw%6)
		tasks := 1 + int(tRaw)%40
		senders := NewPaRan1(p, tasks, seed)
		queue := pumpSenders(rng, senders, 12)

		// Two observers — one merging per delivery, one through batches —
		// plus the naive shadow.
		jobs := NewJobs(p, tasks)
		eager := newPA(p, jobs, &permSelector{order: int32Orders(perm.List{perm.Identity(jobs.N)})[0]})
		batched := newPA(p, jobs, &permSelector{order: int32Orders(perm.List{perm.Identity(jobs.N)})[0]})
		shadow := bitset.New(jobs.N)
		scratch := bitset.New(jobs.N)
		since := make([]int64, p+1)

		for _, qi := range shuffleDropPlan(rng, len(queue)) {
			d := queue[qi]
			ds := d.payload.(DoneSet)
			mc := &sim.Multicast{From: d.from, Payload: ds}
			eager.remain -= eager.merge(nil, []sim.Delivery{{MC: mc}})

			b := &sim.Batch{MCs: []*sim.Multicast{mc}, Builder: -1}
			if kc := batched.BuildCombined(b, since); kc != nil {
				b = &sim.Batch{MCs: b.MCs, Combined: kc, Builder: int32(p)}
			}
			batched.remain -= batched.merge([]*sim.Batch{b}, nil)

			ds.S.Materialize(scratch)
			added := shadow.UnionWith(scratch)

			if !eager.vers.Bits().Equal(shadow) || !batched.vers.Bits().Equal(shadow) {
				t.Logf("seed=%d: done sets diverged from naive union", seed)
				return false
			}
			wantRemain := jobs.N - shadow.Count()
			if eager.remain != wantRemain || batched.remain != wantRemain {
				t.Logf("seed=%d: remain eager=%d batched=%d want %d (added %d)",
					seed, eager.remain, batched.remain, wantRemain, added)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// daObserver returns a merge-only binary DA machine with pid p, outside
// the senders' pids 0…p−1, over jobs.
func daObserver(p int, jobs Jobs) *DA {
	tr, _ := tree.NewForTasksVersioned(2, jobs.N)
	return &DA{
		knowledge: knowledge{pid: p, trees: true, vers: tr.Versioned()},
		q:         2, perms: perm.RotationList(2, 2),
		digits: qDigits(p, 2, tr.Height()),
		tree:   tr, jobs: jobs,
	}
}

// TestQuickTreeSnapshotMergeMatchesNaive is the same property for DA's
// TreeSnapshot kind: the delta merge plus upward closure propagation must
// equal the naive reference — a plain progress tree merging each
// materialized snapshot with the O(nodes) MergeSet/recompute.
func TestQuickTreeSnapshotMergeMatchesNaive(t *testing.T) {
	f := func(seed int64, pRaw, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + int(pRaw%6)
		tasks := 1 + int(tRaw)%40
		senders, err := NewDA(DAConfig{P: p, T: tasks, Q: 2, Perms: perm.RotationList(2, 2)})
		if err != nil {
			t.Fatal(err)
		}
		queue := pumpSenders(rng, senders, 14)

		jobs := NewJobs(p, tasks)
		eager := daObserver(p, jobs)
		batched := daObserver(p, jobs)
		shadow, _ := tree.NewForTasks(2, jobs.N) // plain: naive MergeSet + recompute
		scratch := bitset.New(shadow.Size())
		since := make([]int64, p+1)

		for _, qi := range shuffleDropPlan(rng, len(queue)) {
			d := queue[qi]
			ts := d.payload.(TreeSnapshot)
			mc := &sim.Multicast{From: d.from, Payload: ts}
			eager.absorb(nil, []sim.Delivery{{MC: mc}})

			b := &sim.Batch{MCs: []*sim.Multicast{mc}, Builder: -1}
			if kc := batched.BuildCombined(b, since); kc != nil {
				b = &sim.Batch{MCs: b.MCs, Combined: kc, Builder: int32(p)}
			}
			batched.absorb([]*sim.Batch{b}, nil)

			ts.S.Materialize(scratch)
			shadow.MergeSet(scratch)

			for n := 0; n < shadow.Size(); n++ {
				if eager.tree.Done(n) != shadow.Done(n) || batched.tree.Done(n) != shadow.Done(n) {
					t.Logf("seed=%d: node %d eager=%v batched=%v naive=%v",
						seed, n, eager.tree.Done(n), batched.tree.Done(n), shadow.Done(n))
					return false
				}
			}
			if inv := eager.tree.CheckInvariant(); inv != -1 {
				t.Logf("seed=%d: closure invariant violated at node %d", seed, inv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeSnapshotSparseCachesMatchNaive checks DA's merges on a progress
// tree of 64 words, wide enough for a batch's combined cache to be sparse:
// its index list names fewer than half the words, and Close rereads only
// those. The senders are pids 0, 1024, 512, 1536, 256 and 1280 of
// p = 2048, whose traversals part only near the leaves, so they complete
// sibling leaves and subtrees that only a receiver of both closes. Each
// step applies one to three batches through their caches, and every
// other step adds an inbox delivery, merged whole. After every step the
// receiver's tree must equal the naive one (each materialized snapshot
// merged by MergeSet and recompute); steps applying only sparse caches,
// and steps mixing a sparse cache with a delivery, must both occur.
func TestTreeSnapshotSparseCachesMatchNaive(t *testing.T) {
	const p = 2048
	pids := []int{0, 1024, 512, 1536, 256, 1280}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		all, err := NewDA(DAConfig{P: p, T: p, Q: 2, Perms: perm.RotationList(2, 2)})
		if err != nil {
			t.Fatal(err)
		}
		senders := make([]sim.Machine, len(pids))
		for i, pid := range pids {
			senders[i] = all[pid]
		}
		queue := pumpSenders(rng, senders, 60)

		recv := daObserver(p, NewJobs(p, p))
		if nw := len(recv.vers.Bits().Words()); nw < 64 {
			t.Fatalf("tree spans %d words, want at least 64", nw)
		}
		shadow, _ := tree.NewForTasks(2, p)
		scratch := bitset.New(shadow.Size())
		naive := func(payload any) {
			payload.(TreeSnapshot).S.Materialize(scratch)
			shadow.MergeSet(scratch)
		}
		since := make([]int64, len(pids))
		sparseOnly, mixed := 0, 0
		for step := 0; len(queue) > 0; step++ {
			var batches []*sim.Batch
			sparse, dense := 0, 0
			for k := 1 + rng.Intn(3); k > 0 && len(queue) > 0; k-- {
				b := &sim.Batch{Builder: int32(p)}
				n := min(1+rng.Intn(3), len(queue))
				for _, d := range queue[:n] {
					b.MCs = append(b.MCs, &sim.Multicast{From: d.from, Payload: d.payload})
				}
				queue = queue[n:]
				kc, _ := recv.BuildCombined(b, since).(*knowledgeCombined)
				if kc == nil {
					t.Fatalf("seed %d step %d: no cache for a batch of TreeSnapshots", seed, step)
				}
				if kc.dense {
					dense++
				} else {
					sparse++
				}
				b.Combined = kc
				batches = append(batches, b)
			}
			var tail []sim.Delivery
			if step%2 == 1 && len(queue) > 0 {
				tail = []sim.Delivery{{MC: &sim.Multicast{From: queue[0].from, Payload: queue[0].payload}}}
				queue = queue[1:]
			}
			switch {
			case sparse > 0 && dense == 0 && tail == nil:
				sparseOnly++
			case sparse > 0 && tail != nil:
				mixed++
			}

			recv.absorb(batches, tail)
			for _, b := range batches {
				for _, mc := range b.MCs {
					naive(mc.Payload)
				}
			}
			for _, d := range tail {
				naive(d.Payload())
			}
			for n := 0; n < shadow.Size(); n++ {
				if recv.tree.Done(n) != shadow.Done(n) {
					t.Fatalf("seed %d step %d (%d sparse, %d dense caches, %d deliveries): node %d = %v, naive %v",
						seed, step, sparse, dense, len(tail), n, recv.tree.Done(n), shadow.Done(n))
				}
			}
		}
		if sparseOnly == 0 || mixed == 0 {
			t.Fatalf("seed %d: %d steps applied only sparse caches and %d mixed one with a delivery; want both", seed, sparseOnly, mixed)
		}
		t.Logf("seed %d: %d sparse-only steps, %d mixed steps", seed, sparseOnly, mixed)
	}
}

// TestQuickGroupedEngineMatchesLegacyAllAlgorithms closes the property
// over all six algorithms (including the messageless AllToAll and
// ObliDo): random small shapes run on the grouped multicast engine and
// on the per-message legacy reference must produce identical Results.
func TestQuickGroupedEngineMatchesLegacyAllAlgorithms(t *testing.T) {
	builders := []func(p, tasks int, seed int64) ([]sim.Machine, error){
		func(p, tasks int, seed int64) ([]sim.Machine, error) { return NewAllToAll(p, tasks), nil },
		func(p, tasks int, seed int64) ([]sim.Machine, error) {
			jobs := NewJobs(p, tasks)
			r := rand.New(rand.NewSource(seed))
			return NewObliDo(p, tasks, perm.RandomList(p, jobs.N, r)), nil
		},
		func(p, tasks int, seed int64) ([]sim.Machine, error) {
			return NewDA(DAConfig{P: p, T: tasks, Q: 2, Perms: perm.RotationList(2, 2)})
		},
		func(p, tasks int, seed int64) ([]sim.Machine, error) { return NewPaRan1(p, tasks, seed), nil },
		func(p, tasks int, seed int64) ([]sim.Machine, error) { return NewPaRan2(p, tasks, seed), nil },
		func(p, tasks int, seed int64) ([]sim.Machine, error) {
			jobs := NewJobs(p, tasks)
			r := rand.New(rand.NewSource(seed))
			return NewPaDet(p, tasks, perm.RandomList(p, jobs.N, r))
		},
	}
	f := func(seed int64, algoRaw, pRaw, tRaw, dRaw uint8) bool {
		algo := int(algoRaw) % len(builders)
		p := 2 + int(pRaw%5)
		tasks := 1 + int(tRaw)%24
		d := 1 + int64(dRaw%5)
		cfg := sim.Config{P: p, T: tasks}

		ms1, err := builders[algo](p, tasks, seed)
		if err != nil {
			t.Fatal(err)
		}
		ms2, err := builders[algo](p, tasks, seed)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err1 := sim.RunLegacy(cfg, ms1, newQuickFair(d))
		grouped, err2 := sim.Run(cfg, ms2, newQuickFair(d))
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed=%d algo=%d: errs %v vs %v", seed, algo, err1, err2)
			return false
		}
		if legacy.Work != grouped.Work || legacy.Messages != grouped.Messages ||
			legacy.SolvedAt != grouped.SolvedAt || legacy.Bytes != grouped.Bytes ||
			legacy.TotalSteps != grouped.TotalSteps || legacy.TotalMessages != grouped.TotalMessages {
			t.Logf("seed=%d algo=%d p=%d t=%d d=%d:\nlegacy  %+v\ngrouped %+v",
				seed, algo, p, tasks, d, legacy, grouped)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// quickFair is a minimal uniform adversary local to the
// test (internal/core cannot import internal/adversary — layering).
type quickFair struct{ d int64 }

func newQuickFair(d int64) *quickFair { return &quickFair{d} }

func (a *quickFair) D() int64 { return a.d }
func (a *quickFair) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}
func (a *quickFair) Delays(from int, sentAt int64, out []int64) int64 { return a.d }

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
		mkObserver := func() *DA {
			tr, _ := tree.NewForTasksVersioned(2, jobs.N)
			return &DA{
				knowledge: knowledge{pid: p, trees: true, vers: tr.Versioned()},
				q:         2, perms: perm.RotationList(2, 2),
				digits: qDigits(p, 2, tr.Height()),
				tree:   tr, jobs: jobs,
			}
		}
		eager := mkObserver()
		batched := mkObserver()
		shadow, _ := tree.NewForTasks(2, jobs.N) // plain: naive MergeSet + recompute
		scratch := bitset.New(shadow.Size())
		since := make([]int64, p+1)

		for _, qi := range shuffleDropPlan(rng, len(queue)) {
			d := queue[qi]
			ts := d.payload.(TreeSnapshot)
			mc := &sim.Multicast{From: d.from, Payload: ts}
			eager.merge(nil, []sim.Delivery{{MC: mc}})
			eager.tree.Close(eager.delta)

			b := &sim.Batch{MCs: []*sim.Multicast{mc}, Builder: -1}
			if kc := batched.BuildCombined(b, since); kc != nil {
				b = &sim.Batch{MCs: b.MCs, Combined: kc, Builder: int32(p)}
			}
			batched.merge([]*sim.Batch{b}, nil)
			batched.tree.Close(batched.delta)

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

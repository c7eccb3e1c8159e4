package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"doall/internal/bitset"
	"doall/internal/perm"
	"doall/internal/sim"
)

// The rebase-on-revive property (quick.Check, per algorithm): a machine
// that lived, crashed, and rejoined is state-equivalent to a brand-new
// machine built from the same seed when both are then fed the identical
// delivery sequence and stepped identically. Rejoin must erase every
// trace of the first incarnation except the (invisible to state) version
// counter.
//
// For deterministic machines (PaRan1, PaDet, DA, AllToAll, ObliDo) the
// equivalence covers knowledge AND behavior — the performed-task
// sequence must match step for step. PaRan2's on-line random stream
// continues across the rejoin by design (a fresh trial, not a replay),
// so its trial is merge-only: both machines fold the same deliveries
// into their knowledge planes without taking selection steps, and the
// resulting done-sets must coincide.

// rejoinWorld drives one property trial: peers produce real snapshot
// payloads, the subject consumes some pre-crash, rejoins, and then the
// subject and a fresh twin consume identical post-revive deliveries.
type rejoinWorld struct {
	p, t  int
	seed  int64
	build func(p, t int, seed int64) ([]sim.Machine, error)
	// deterministic demands behavioral (step-for-step) equivalence.
	deterministic bool
	// mergeOnly runs phase 2 through the knowledge plane alone (PaRan2,
	// whose selection stream legitimately diverges from a fresh
	// machine's).
	mergeOnly bool
	// stateEqual compares the algorithm-specific machine state.
	stateEqual func(a, b sim.Machine) error
}

func (w rejoinWorld) run(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ms, err := w.build(w.p, w.t, w.seed)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	fresh, err := w.build(w.p, w.t, w.seed)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	subject, twin := ms[0], fresh[0]

	// Peers run for a while, producing genuine snapshot payloads.
	var payloads []any
	now := int64(0)
	stepPeers := func(rounds int) {
		for k := 0; k < rounds; k++ {
			for j := 1; j < w.p; j++ {
				r := ms[j].Step(now, nil)
				if r.Broadcast != nil {
					payloads = append(payloads, r.Broadcast)
				}
			}
			now++
		}
	}

	deliver := func(m sim.Machine, from int, pl any) {
		mc := &sim.Multicast{From: from, SentAt: now, Payload: pl}
		m.Step(now, []sim.Delivery{{MC: mc, At: now}})
		now++
	}

	// Phase 1: the subject lives — it consumes an arbitrary prefix of the
	// peers' knowledge and takes its own steps.
	stepPeers(1 + rng.Intn(4))
	for _, pl := range payloads {
		if rng.Intn(2) == 0 {
			deliver(subject, 1+rng.Intn(w.p-1), pl)
		} else {
			subject.Step(now, nil)
			now++
		}
	}

	// Crash-restart.
	if !sim.RejoinMachine(subject) {
		return fmt.Errorf("machine does not support rejoin")
	}

	// Phase 2: subject and twin see the identical world.
	payloads = payloads[:0]
	stepPeers(1 + rng.Intn(3))
	if w.mergeOnly {
		// Fold the identical deliveries into both knowledge planes
		// without taking selection steps.
		for _, pl := range payloads {
			from := 1 + rng.Intn(w.p-1)
			mcA := &sim.Multicast{From: from, SentAt: now, Payload: pl}
			mcB := &sim.Multicast{From: from, SentAt: now, Payload: pl}
			sp, tp := subject.(*PA), twin.(*PA)
			sp.remain -= sp.merge(nil, []sim.Delivery{{MC: mcA, At: now}})
			tp.remain -= tp.merge(nil, []sim.Delivery{{MC: mcB, At: now}})
			now++
		}
		return w.stateEqual(subject, twin)
	}
	script := make([]int, 4+rng.Intn(8)) // 0 = empty step, 1 = delivery
	for i := range script {
		script[i] = rng.Intn(2)
	}
	pi := 0
	for _, op := range script {
		if op == 1 && pi < len(payloads) {
			from := 1 + rng.Intn(w.p-1)
			mcA := &sim.Multicast{From: from, SentAt: now, Payload: payloads[pi]}
			mcB := &sim.Multicast{From: from, SentAt: now, Payload: payloads[pi]}
			ra := subject.Step(now, []sim.Delivery{{MC: mcA, At: now}})
			rb := twin.Step(now, []sim.Delivery{{MC: mcB, At: now}})
			if w.deterministic && ra.PerformedTask() != rb.PerformedTask() {
				return fmt.Errorf("delivery step diverged: revived performed %d, fresh %d", ra.PerformedTask(), rb.PerformedTask())
			}
			pi++
		} else {
			ra := subject.Step(now, nil)
			rb := twin.Step(now, nil)
			if w.deterministic && (ra.PerformedTask() != rb.PerformedTask() || ra.Halt != rb.Halt) {
				return fmt.Errorf("empty step diverged: revived (%d, halt=%v), fresh (%d, halt=%v)",
					ra.PerformedTask(), ra.Halt, rb.PerformedTask(), rb.Halt)
			}
		}
		now++
		if subject.KnowsAllDone() != twin.KnowsAllDone() {
			return fmt.Errorf("KnowsAllDone diverged: revived %v, fresh %v", subject.KnowsAllDone(), twin.KnowsAllDone())
		}
	}
	return w.stateEqual(subject, twin)
}

func paStateEqual(a, b sim.Machine) error {
	x, y := a.(*PA), b.(*PA)
	if x.remain != y.remain {
		return fmt.Errorf("PA remain: revived %d, fresh %d", x.remain, y.remain)
	}
	if !bitsetEqual(x.vers.Bits(), y.vers.Bits()) {
		return fmt.Errorf("PA done sets differ")
	}
	return nil
}

func daStateEqual(a, b sim.Machine) error {
	x, y := a.(*DA), b.(*DA)
	if !bitsetEqual(x.vers.Bits(), y.vers.Bits()) {
		return fmt.Errorf("DA replicas differ")
	}
	if len(x.stack) != len(y.stack) {
		return fmt.Errorf("DA stacks differ: %d vs %d frames", len(x.stack), len(y.stack))
	}
	for i := range x.stack {
		if x.stack[i] != y.stack[i] {
			return fmt.Errorf("DA stack frame %d differs: %+v vs %+v", i, x.stack[i], y.stack[i])
		}
	}
	if x.unit != y.unit {
		return fmt.Errorf("DA unit: %d vs %d", x.unit, y.unit)
	}
	return nil
}

func bitsetEqual(a, b *bitset.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	aw, bw := a.Words(), b.Words()
	for i := range aw {
		if aw[i] != bw[i] {
			return false
		}
	}
	return true
}

func TestQuickRejoinEquivalentToFresh(t *testing.T) {
	algos := []struct {
		name          string
		build         func(p, t int, seed int64) ([]sim.Machine, error)
		deterministic bool
		mergeOnly     bool
		stateEqual    func(a, b sim.Machine) error
	}{
		{"PaRan1", func(p, t int, seed int64) ([]sim.Machine, error) {
			return NewPaRan1(p, t, seed), nil
		}, true, false, paStateEqual},
		{"PaRan2", func(p, t int, seed int64) ([]sim.Machine, error) {
			return NewPaRan2(p, t, seed), nil
		}, false, true, paStateEqual},
		{"PaDet", func(p, t int, seed int64) ([]sim.Machine, error) {
			r := rand.New(rand.NewSource(seed))
			jobs := NewJobs(p, t)
			return NewPaDet(p, t, perm.FindLowDContentionList(p, jobs.N, 2, 4, r).List)
		}, true, false, paStateEqual},
		{"DA", func(p, t int, seed int64) ([]sim.Machine, error) {
			r := rand.New(rand.NewSource(seed))
			return NewDA(DAConfig{P: p, T: t, Q: 2, Perms: perm.FindLowContentionList(2, 2, 4, r).List})
		}, true, false, daStateEqual},
		{"AllToAll", func(p, t int, seed int64) ([]sim.Machine, error) {
			return NewAllToAll(p, t), nil
		}, true, false, func(a, b sim.Machine) error {
			x, y := a.(*AllToAll), b.(*AllToAll)
			if x.next != y.next {
				return fmt.Errorf("AllToAll position: %d vs %d", x.next, y.next)
			}
			return nil
		}},
		{"ObliDo", func(p, t int, seed int64) ([]sim.Machine, error) {
			r := rand.New(rand.NewSource(seed))
			jobs := NewJobs(p, t)
			return NewObliDo(p, t, perm.RandomList(p, jobs.N, r)), nil
		}, true, false, func(a, b sim.Machine) error {
			x, y := a.(*ObliDo), b.(*ObliDo)
			if x.jobIx != y.jobIx || x.unit != y.unit {
				return fmt.Errorf("ObliDo position: (%d,%d) vs (%d,%d)", x.jobIx, x.unit, y.jobIx, y.unit)
			}
			return nil
		}},
	}
	for _, algo := range algos {
		algo := algo
		t.Run(algo.name, func(t *testing.T) {
			prop := func(seed int64, pRaw, tRaw uint8) bool {
				w := rejoinWorld{
					p:             2 + int(pRaw%6),
					t:             1 + int(tRaw%48),
					seed:          seed % 1000,
					build:         algo.build,
					deterministic: algo.deterministic,
					mergeOnly:     algo.mergeOnly,
					stateEqual:    algo.stateEqual,
				}
				if err := w.run(seed); err != nil {
					t.Logf("p=%d t=%d seed=%d: %v", w.p, w.t, w.seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

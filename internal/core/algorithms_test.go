package core

import (
	"math/rand"
	"slices"
	"testing"

	"doall/internal/adversary"
	"doall/internal/perm"
	"doall/internal/sim"
)

// mustSolve runs machines under adv and fails the test unless Do-All is
// solved with every task performed and no early voluntary halt.
func mustSolve(t *testing.T, p, tasks int, ms []sim.Machine, adv sim.Adversary) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{P: p, T: tasks}, ms, adv)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Solved {
		t.Fatal("Do-All not solved")
	}
	for z, at := range res.FirstDoneAt {
		if at < 0 {
			t.Fatalf("task %d never performed", z)
		}
	}
	if res.HaltedEarly {
		t.Fatal("a processor halted before knowing all tasks done (Proposition 2.1 violation)")
	}
	return res
}

func daMachines(t *testing.T, p, tasks, q int, seed int64) []sim.Machine {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	sr := perm.FindLowContentionList(q, q, 100, r)
	ms, err := NewDA(DAConfig{P: p, T: tasks, Q: q, Perms: sr.List})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestAllToAllWorkIsExactlyPT(t *testing.T) {
	p, tasks := 5, 12
	res := mustSolve(t, p, tasks, NewAllToAll(p, tasks), adversary.NewFair(1))
	if res.Work != int64(p*tasks) {
		t.Fatalf("AllToAll Work = %d, want p·t = %d", res.Work, p*tasks)
	}
	if res.Messages != 0 {
		t.Fatalf("AllToAll sent %d messages, want 0", res.Messages)
	}
}

func TestObliDoSolvesAndIsQuadratic(t *testing.T) {
	p, tasks := 6, 6
	r := rand.New(rand.NewSource(1))
	l := perm.RandomList(p, p, r)
	res := mustSolve(t, p, tasks, NewObliDo(p, tasks, l), adversary.NewFair(1))
	// Every processor performs all n jobs: total executions = n².
	if res.TaskExecutions != int64(p*tasks/1) {
		t.Fatalf("ObliDo executions = %d, want n² = %d", res.TaskExecutions, p*tasks)
	}
}

func TestObliDoPrimaryExecutionsBoundedByContention(t *testing.T) {
	// Lemma 4.2: primary job executions ≤ Cont(Σ). We use n small enough
	// for exact contention and a fair adversary (any adversary is valid —
	// the bound is worst-case).
	n := 5
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		l := perm.RandomList(n, n, r)
		cont := perm.Cont(l)
		for _, d := range []int64{1, 2, 5} {
			ms := NewObliDo(n, n, l)
			res := mustSolve(t, n, n, ms, adversary.NewFair(d))
			if res.PrimaryExecutions > int64(cont) {
				t.Fatalf("trial %d d=%d: primary executions %d > Cont(Σ) = %d",
					trial, d, res.PrimaryExecutions, cont)
			}
			if res.PrimaryExecutions < int64(n) {
				t.Fatalf("primary executions %d < n = %d", res.PrimaryExecutions, n)
			}
		}
	}
}

func TestDASolvesBasic(t *testing.T) {
	for _, c := range []struct{ p, tasks, q int }{
		{1, 1, 2},
		{1, 8, 2},
		{2, 4, 2},
		{4, 16, 2},
		{4, 16, 4},
		{8, 27, 3},
		{3, 9, 3},
		{9, 9, 3},
		{5, 7, 2},   // non-power sizes exercise padding
		{6, 100, 3}, // p < t: job partitioning
	} {
		ms := daMachines(t, c.p, c.tasks, c.q, 7)
		res := mustSolve(t, c.p, c.tasks, ms, adversary.NewFair(1))
		if res.Work < int64(c.tasks) {
			t.Fatalf("p=%d t=%d q=%d: work %d below t", c.p, c.tasks, c.q, res.Work)
		}
	}
}

func TestDASoloTraversalLinear(t *testing.T) {
	// A single processor's traversal must be O(t) for constant q: each
	// node visited a constant number of times.
	tasks := 64
	ms := daMachines(t, 1, tasks, 2, 3)
	res := mustSolve(t, 1, tasks, ms, adversary.NewFair(1))
	if res.Work > int64(6*tasks) {
		t.Fatalf("solo DA work %d not linear in t=%d", res.Work, tasks)
	}
}

func TestDAUnderRandomAsynchrony(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ms := daMachines(t, 6, 36, 3, seed)
		adv := adversary.NewRandom(4, 0.6, seed)
		res := mustSolve(t, 6, 36, ms, adv)
		if res.Work < 36 {
			t.Fatal("impossible work")
		}
	}
}

func TestDAWithCrashes(t *testing.T) {
	// Crash all but one processor early; the survivor must finish alone.
	p, tasks := 5, 25
	ms := daMachines(t, p, tasks, 2, 11)
	var events []adversary.CrashEvent
	for i := 1; i < p; i++ {
		events = append(events, adversary.CrashEvent{Pid: i, At: int64(i)})
	}
	adv := adversary.NewCrashing(adversary.NewFair(3), events)
	res := mustSolve(t, p, tasks, ms, adv)
	if res.PerProcWork[0] < int64(tasks) {
		t.Fatalf("survivor did %d work, needs at least t=%d", res.PerProcWork[0], tasks)
	}
}

func TestDACrashNeverLastProcessor(t *testing.T) {
	// Crashing wrapper must refuse to kill the last live processor.
	p, tasks := 2, 8
	ms := daMachines(t, p, tasks, 2, 13)
	adv := adversary.NewCrashing(adversary.NewFair(2), []adversary.CrashEvent{
		{Pid: 0, At: 0}, {Pid: 1, At: 1},
	})
	res := mustSolve(t, p, tasks, ms, adv)
	if res.Solved != true {
		t.Fatal("not solved with one survivor")
	}
}

func TestDADigits(t *testing.T) {
	// pid 11 base 2 with h=4: 1101 → digits LSB-first 1,1,0,1.
	got := qDigits(11, 2, 4)
	want := []int{1, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("qDigits(11,2,4) = %v, want %v", got, want)
		}
	}
	got = qDigits(5, 3, 3) // 5 = 012₃ → LSB-first 2,1,0
	want = []int{2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("qDigits(5,3,3) = %v, want %v", got, want)
		}
	}
}

func TestDAConfigValidation(t *testing.T) {
	if _, err := NewDA(DAConfig{P: 2, T: 4, Q: 1, Perms: perm.List{perm.Identity(1)}}); err == nil {
		t.Fatal("q=1 accepted")
	}
	if _, err := NewDA(DAConfig{P: 2, T: 4, Q: 2, Perms: perm.List{perm.Identity(2)}}); err == nil {
		t.Fatal("wrong list length accepted")
	}
	if _, err := NewDA(DAConfig{P: 2, T: 4, Q: 2, Perms: perm.List{perm.Identity(3), perm.Identity(3)}}); err == nil {
		t.Fatal("wrong permutation arity accepted")
	}
	if _, err := NewDA(DAConfig{P: 0, T: 4, Q: 2, Perms: perm.RotationList(2, 2)}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestPaRan1Solves(t *testing.T) {
	for _, c := range []struct{ p, tasks int }{{1, 1}, {2, 2}, {4, 16}, {8, 8}, {3, 100}, {16, 16}} {
		ms := NewPaRan1(c.p, c.tasks, 42)
		res := mustSolve(t, c.p, c.tasks, ms, adversary.NewFair(2))
		if res.Work < int64(c.tasks) {
			t.Fatal("impossible work")
		}
	}
}

func TestPaRan2Solves(t *testing.T) {
	for _, c := range []struct{ p, tasks int }{{1, 1}, {2, 2}, {4, 16}, {8, 8}, {3, 100}} {
		ms := NewPaRan2(c.p, c.tasks, 43)
		mustSolve(t, c.p, c.tasks, ms, adversary.NewFair(2))
	}
}

func TestPaDetSolves(t *testing.T) {
	for _, c := range []struct{ p, tasks int }{{2, 2}, {4, 16}, {8, 8}, {3, 100}} {
		jobs := NewJobs(c.p, c.tasks)
		r := rand.New(rand.NewSource(44))
		l := perm.FindLowDContentionList(c.p, jobs.N, 2, 20, r).List
		ms, err := NewPaDet(c.p, c.tasks, l)
		if err != nil {
			t.Fatal(err)
		}
		mustSolve(t, c.p, c.tasks, ms, adversary.NewFair(2))
	}
}

func TestPaDetValidation(t *testing.T) {
	if _, err := NewPaDet(2, 4, perm.List{perm.Identity(3), perm.Identity(3)}); err == nil {
		t.Fatal("schedule arity mismatch accepted")
	}
	if _, err := NewPaDet(2, 2, perm.List{}); err == nil {
		t.Fatal("empty schedule list accepted")
	}
}

func TestPaWithCrashes(t *testing.T) {
	p, tasks := 6, 30
	ms := NewPaRan1(p, tasks, 7)
	var events []adversary.CrashEvent
	for i := 0; i < p-1; i++ {
		events = append(events, adversary.CrashEvent{Pid: i, At: int64(2 + i)})
	}
	adv := adversary.NewCrashing(adversary.NewFair(4), events)
	mustSolve(t, p, tasks, ms, adv)
}

func TestPaRanSameSeedSameResult(t *testing.T) {
	run := func() int64 {
		ms := NewPaRan1(4, 32, 99)
		res := mustSolve(t, 4, 32, ms, adversary.NewFair(3))
		return res.Work
	}
	if run() != run() {
		t.Fatal("PaRan1 nondeterministic for fixed seed")
	}
}

func TestNextTaskMatchesStepDA(t *testing.T) {
	// Whenever NextTask predicts a task, the very next Step must perform
	// exactly that task. Drive a single DA machine manually.
	ms := daMachines(t, 1, 16, 2, 5)
	m := ms[0].(*DA)
	for step := 0; step < 200; step++ {
		want := m.NextTask()
		r := m.Step(int64(step), nil)
		if got := r.PerformedTask(); got != want {
			t.Fatalf("step %d: NextTask=%d but Step performed %d", step, want, got)
		}
		if r.Halt {
			return
		}
	}
	t.Fatal("DA did not finish in 200 steps")
}

// TestDANextTaskAfterMergesAllocatesNothing runs DA machines at different
// speeds that merge each other's snapshots before predicting, so their
// stacks hold frames — leaves mid-job included — that a peer already
// finished. NextTask must predict the task the following step performs,
// and must not allocate.
func TestDANextTaskAfterMergesAllocatesNothing(t *testing.T) {
	for _, q := range []int{2, 3} {
		const p = 4
		ms := daMachines(t, p, 40, q, 5)
		var mail []sim.Delivery
		for round := int64(0); round < 1000; round++ {
			var sent []sim.Delivery
			live := 0
			for i, mach := range ms {
				m := mach.(*DA)
				if m.Halted() {
					continue
				}
				live++
				if round%int64(i+1) != 0 {
					continue // machines run at different speeds
				}
				if round%3 == 0 {
					var inbox []sim.Delivery
					for _, d := range mail {
						if d.MC.From != i {
							inbox = append(inbox, d)
						}
					}
					m.merge(inbox)
				}
				want := m.NextTask()
				if a := testing.AllocsPerRun(5, func() { m.NextTask() }); a != 0 {
					t.Fatalf("q=%d round %d: NextTask allocates %v times", q, round, a)
				}
				r := m.Step(round, nil)
				if r.PerformedTask() != want {
					t.Fatalf("q=%d round %d machine %d: NextTask=%d but Step performed %d", q, round, i, want, r.PerformedTask())
				}
				if r.Broadcast != nil {
					sent = append(sent, sim.Delivery{MC: &sim.Multicast{From: i, SentAt: round, Payload: r.Broadcast}, At: round})
				}
			}
			if live == 0 {
				break
			}
			if round%3 == 0 {
				mail = mail[:0]
			}
			mail = append(mail, sent...)
		}
		for i, mach := range ms {
			if !mach.(*DA).Halted() {
				t.Fatalf("q=%d: machine %d did not halt in 1000 rounds", q, i)
			}
		}
	}
}

func TestNextTaskMatchesStepPA(t *testing.T) {
	ms := NewPaRan2(1, 10, 3)
	m := ms[0].(*PA)
	for step := 0; step < 100; step++ {
		want := m.NextTask()
		r := m.Step(int64(step), nil)
		if want >= 0 && r.PerformedTask() != want {
			t.Fatalf("step %d: NextTask=%d but Step performed %d", step, want, r.PerformedTask())
		}
		if r.Halt {
			return
		}
	}
	t.Fatal("PA did not finish in 100 steps")
}

func TestDACloneIndependence(t *testing.T) {
	ms := daMachines(t, 2, 8, 2, 9)
	m := ms[0].(*DA)
	clone := m.CloneMachine().(*DA)
	// Step the clone several times; the original's state must not move.
	before := m.NextTask()
	for i := 0; i < 5; i++ {
		clone.Step(int64(i), nil)
	}
	if m.NextTask() != before {
		t.Fatal("stepping a clone mutated the original")
	}
}

func TestPACloneSemantics(t *testing.T) {
	det := NewPaRan1(1, 4, 1)[0].(*PA)
	if det.CloneMachine() == nil {
		t.Fatal("PaRan1 should be cloneable after init")
	}
	ran2 := NewPaRan2(1, 4, 1)[0].(*PA)
	if ran2.CloneMachine() != nil {
		t.Fatal("PaRan2 must refuse cloning (on-line randomness)")
	}
}

func TestLargeDelayForcesQuadraticWork(t *testing.T) {
	// Proposition 2.2 flavor: with d ≥ t no coordination helps; work of
	// DA and PaRan1 approaches p·t.
	p, tasks := 4, 16
	d := int64(tasks) * 2

	da := daMachines(t, p, tasks, 2, 21)
	resDA := mustSolve(t, p, tasks, da, adversary.NewFair(d))
	if resDA.Work < int64(p*tasks)/2 {
		t.Fatalf("DA at huge d: work %d, expected near p·t = %d", resDA.Work, p*tasks)
	}

	pa := NewPaRan1(p, tasks, 22)
	resPA := mustSolve(t, p, tasks, pa, adversary.NewFair(d))
	if resPA.Work < int64(p*tasks)/2 {
		t.Fatalf("PaRan1 at huge d: work %d, expected near p·t = %d", resPA.Work, p*tasks)
	}
}

func TestSmallDelayBeatsOblivious(t *testing.T) {
	// The whole point of the paper: for d ≪ t, coordinated algorithms do
	// subquadratic work. Compare against AllToAll's p·t at d = 1.
	p, tasks := 8, 64
	oblivious := int64(p * tasks)

	da := daMachines(t, p, tasks, 2, 31)
	resDA := mustSolve(t, p, tasks, da, adversary.NewFair(1))
	if resDA.Work >= oblivious {
		t.Fatalf("DA work %d does not beat oblivious %d at d=1", resDA.Work, oblivious)
	}

	pa := NewPaRan1(p, tasks, 32)
	resPA := mustSolve(t, p, tasks, pa, adversary.NewFair(1))
	if resPA.Work >= oblivious {
		t.Fatalf("PaRan1 work %d does not beat oblivious %d at d=1", resPA.Work, oblivious)
	}
}

func TestDAMessageComplexityIsPerStepBounded(t *testing.T) {
	// Theorem 5.6: M = O(p·W) — each step broadcasts at most once, so
	// M ≤ (p-1)·W always.
	p, tasks := 6, 36
	ms := daMachines(t, p, tasks, 2, 41)
	res := mustSolve(t, p, tasks, ms, adversary.NewFair(2))
	if res.Messages > int64(p-1)*res.Work {
		t.Fatalf("M = %d exceeds (p-1)·W = %d", res.Messages, int64(p-1)*res.Work)
	}
}

func TestObliDoScheduleArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewObliDo(4, 4, perm.List{perm.Identity(3)})
}

// TestPABuildFanOutEquivalence pins the shard-parallel builds to the
// serial ones: at every fan-out, including uneven splits and more shards
// than processors, PaRan1 must draw the same permutations and PaRan2's
// selectors the same first draws. Run under -race it also checks that the
// shards write disjoint parts of the shared backing.
func TestPABuildFanOutEquivalence(t *testing.T) {
	for _, c := range []struct{ p, tasks int }{{1, 4}, {5, 20}, {64, 256}, {131, 1000}} {
		serial1 := NewPaRan1(c.p, c.tasks, 17)
		firstDraws := make([]int64, c.p)
		for i, m := range NewPaRan2(c.p, c.tasks, 17) {
			firstDraws[i] = m.(*PA).selector.(*randSelector).rng.Int63()
		}
		for _, shards := range []int{1, 2, 3, 7} {
			ran1 := NewPaRan1Sharded(c.p, c.tasks, 17, shards)
			ran2 := NewPaRan2Sharded(c.p, c.tasks, 17, shards)
			for i := 0; i < c.p; i++ {
				want := serial1[i].(*PA).selector.(*permSelector).order
				got := ran1[i].(*PA).selector.(*permSelector).order
				if !slices.Equal(got, want) {
					t.Fatalf("p=%d shards=%d: PaRan1 pid %d permutation %v, serial %v", c.p, shards, i, got, want)
				}
				if g := ran2[i].(*PA).selector.(*randSelector).rng.Int63(); g != firstDraws[i] {
					t.Fatalf("p=%d shards=%d: PaRan2 pid %d first draw %d, serial %d", c.p, shards, i, g, firstDraws[i])
				}
			}
		}
	}
}

package adversary

import (
	"math/rand"
	"testing"

	"doall/internal/bounds"
	"doall/internal/core"
	"doall/internal/perm"
	"doall/internal/sim"
)

func solve(t *testing.T, p, tasks int, ms []sim.Machine, adv sim.Adversary) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{P: p, T: tasks}, ms, adv)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	return res
}

func daSet(t *testing.T, p, tasks, q int) []sim.Machine {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	l := perm.FindLowContentionList(q, q, 50, r).List
	ms, err := core.NewDA(core.DAConfig{P: p, T: tasks, Q: q, Perms: l})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestFairDelayBounds(t *testing.T) {
	a := NewFair(5)
	if a.D() != 5 {
		t.Fatal("wrong bound")
	}
	if d := a.Delays(0, 10, nil); d != 5 {
		t.Fatalf("Delays = %d, want 5", d)
	}
	a.Fixed = 2
	if d := a.Delays(0, 10, nil); d != 2 {
		t.Fatalf("Delays = %d, want 2", d)
	}
	a.Fixed = 9 // out of range → fall back to bound
	if d := a.Delays(0, 10, nil); d != 5 {
		t.Fatalf("Delays = %d, want clamped 5", d)
	}
}

func TestRandomDelaysWithinBound(t *testing.T) {
	a := NewRandom(7, 0.5, 3)
	out := make([]int64, 2)
	for i := 0; i < 1000; i++ {
		if u := a.Delays(0, int64(i), out); u != 0 {
			t.Fatalf("uniform %d; random delays must fill", u)
		}
		if d := out[1]; d < 1 || d > 7 {
			t.Fatalf("delay %d outside [1,7]", d)
		}
	}
}

func TestRandomSchedulesLiveness(t *testing.T) {
	// Even with tiny activity, at least one live processor steps.
	a := NewRandom(2, 0.0, 4)
	v := &sim.View{P: 3, Crashed: make([]bool, 3), Halted: make([]bool, 3)}
	var dec sim.Decision
	a.Schedule(v, &dec)
	if len(dec.Active) == 0 {
		t.Fatal("no processor scheduled")
	}
}

func TestRandomAdversarySolvesDA(t *testing.T) {
	ms := daSet(t, 4, 16, 2)
	solve(t, 4, 16, ms, NewRandom(3, 0.5, 5))
}

func TestCrashingRespectsSurvivorRule(t *testing.T) {
	inner := NewFair(1)
	a := NewCrashing(inner, []CrashEvent{{Pid: 0, At: 0}, {Pid: 1, At: 0}})
	v := &sim.View{P: 2, Crashed: make([]bool, 2), Halted: make([]bool, 2)}
	var dec sim.Decision
	a.Schedule(v, &dec)
	if len(dec.Crash) > 1 {
		t.Fatalf("crashed %d processors out of 2; must keep a survivor", len(dec.Crash))
	}
}

func TestSlowSetThrottles(t *testing.T) {
	a := NewSlowSet(2, []int{1}, 4)
	v := &sim.View{P: 2, Crashed: make([]bool, 2), Halted: make([]bool, 2)}
	// At now=1..3 the slow processor must not be scheduled; at 0 and 4 it is.
	for now := int64(0); now < 8; now++ {
		v.Now = now
		var dec sim.Decision
		a.Schedule(v, &dec)
		has1 := false
		for _, i := range dec.Active {
			if i == 1 {
				has1 = true
			}
		}
		if (now%4 == 0) != has1 {
			t.Fatalf("now=%d: slow processor scheduled=%v", now, has1)
		}
	}
}

func TestSlowSetSolvesDA(t *testing.T) {
	ms := daSet(t, 4, 16, 2)
	solve(t, 4, 16, ms, NewSlowSet(2, []int{2, 3}, 3))
}

func TestStageClock(t *testing.T) {
	c := newStageClock(4, 60) // L = min(4, 10) = 4
	if c.L != 4 {
		t.Fatalf("L = %d, want 4", c.L)
	}
	if c.stage(0) != 0 || c.stage(3) != 0 || c.stage(4) != 1 {
		t.Fatal("stage indexing wrong")
	}
	if !c.stageStart(0) || c.stageStart(1) || !c.stageStart(8) {
		t.Fatal("stageStart wrong")
	}
	for sent := int64(0); sent < 12; sent++ {
		d := c.delayToStageEnd(sent)
		if d < 1 || d > 4 {
			t.Fatalf("delayToStageEnd(%d) = %d outside [1,4]", sent, d)
		}
		if (sent+d)%4 != 0 {
			t.Fatalf("message sent at %d delivered at %d, not a stage boundary", sent, sent+d)
		}
	}

	// Tiny t: L = max(1, t/6).
	c = newStageClock(10, 5)
	if c.L != 1 {
		t.Fatalf("L = %d, want 1 for t=5", c.L)
	}
}

func TestStageDeterministicForcesLowerBoundShape(t *testing.T) {
	// Note the Theorem 3.1 adversary *delays* processors, and delayed
	// processors take no (charged) local steps — so its forced work can be
	// numerically below the benign full-speed adversary's. The claim to
	// check is that the work it forces is within a constant of the
	// Ω(t + p·min{d,t}·log_{d+1}(d+t)) bound and that it engages for
	// ≈ log_{3L}(t) stages.
	p, tasks, q, d := 8, 512, 2, 4

	ms := daSet(t, p, tasks, q)
	stage := NewStageDeterministic(int64(d), tasks)
	res := solve(t, p, tasks, ms, stage)

	if stage.Stages < 2 {
		t.Fatalf("stage adversary engaged only %d stages", stage.Stages)
	}
	lb := bounds.LowerBound(p, tasks, d)
	if float64(res.Work) < lb/8 {
		t.Fatalf("forced work %d too far below the Ω bound %.0f", res.Work, lb)
	}
	if res.Work < int64(tasks) {
		t.Fatalf("work %d below t", res.Work)
	}
}

func TestStageOnlineForcesLowerBoundShape(t *testing.T) {
	p, tasks, d := 8, 512, 4

	ms := core.NewPaRan2(p, tasks, 7)
	stage := NewStageOnline(int64(d), tasks)
	res := solve(t, p, tasks, ms, stage)

	if stage.Stages < 2 {
		t.Fatalf("online adversary engaged only %d stages", stage.Stages)
	}
	lb := bounds.LowerBound(p, tasks, d)
	if float64(res.Work) < lb/8 {
		t.Fatalf("forced work %d too far below the Ω bound %.0f", res.Work, lb)
	}
}

func TestStageOnlineProtectedTasksSurviveStages(t *testing.T) {
	// The adversary's purpose: while it is engaged, the problem cannot
	// finish — so σ must come after the last adversarial stage boundary.
	p, tasks, d := 4, 256, 4
	ms := core.NewPaRan2(p, tasks, 19)
	stage := NewStageOnline(int64(d), tasks)
	res := solve(t, p, tasks, ms, stage)
	minTime := stage.Stages * int64(d) // L = d here (d < t/6)
	if res.SolvedAt < minTime {
		t.Fatalf("solved at %d, before the %d adversarial stages ended (%d)",
			res.SolvedAt, stage.Stages, minTime)
	}
}

func TestStageAdversariesStillSolvable(t *testing.T) {
	// The adversaries must not block termination (they turn benign after
	// their stage budget). Exercise several shapes.
	for _, c := range []struct{ p, tasks, d int }{
		{2, 12, 2}, {4, 16, 16}, {4, 100, 4}, {1, 8, 3},
	} {
		ms := daSet(t, c.p, c.tasks, 2)
		solve(t, c.p, c.tasks, ms, NewStageDeterministic(int64(c.d), c.tasks))

		ms2 := core.NewPaRan2(c.p, c.tasks, 11)
		solve(t, c.p, c.tasks, ms2, NewStageOnline(int64(c.d), c.tasks))
	}
}

func TestStageOnlineAgainstPaDet(t *testing.T) {
	p, tasks := 4, 24
	jobs := core.NewJobs(p, tasks)
	r := rand.New(rand.NewSource(13))
	l := perm.FindLowDContentionList(p, jobs.N, 2, 20, r).List
	ms, err := core.NewPaDet(p, tasks, l)
	if err != nil {
		t.Fatal(err)
	}
	solve(t, p, tasks, ms, NewStageOnline(4, tasks))
}

func TestMaxAdversarialStages(t *testing.T) {
	if maxAdversarialStages(64, 2) < 6 {
		t.Fatal("log2(64) should be ≥ 6")
	}
	if maxAdversarialStages(8, 1) < 1 {
		t.Fatal("base < 2 must clamp, not explode")
	}
}

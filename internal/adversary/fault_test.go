package adversary

import (
	"testing"

	"doall/internal/sim"
)

// seqMachine is a minimal communication-free machine for smoke runs:
// it performs tasks 0..t-1 in order and halts (AllToAll without the
// core dependency).
type seqMachine struct{ t, next int }

func (m *seqMachine) Step(now int64, inbox []sim.Delivery) sim.StepResult {
	if m.next >= m.t {
		return sim.StepResult{Halt: true}
	}
	z := m.next
	m.next++
	r := sim.StepResult{Halt: m.next >= m.t}
	r.Perform(z)
	return r
}

func (m *seqMachine) KnowsAllDone() bool { return m.next >= m.t }

func (m *seqMachine) Rejoin() { m.next = 0 }

func coreMachines(p, t int) []sim.Machine {
	ms := make([]sim.Machine, p)
	for i := range ms {
		ms[i] = &seqMachine{t: t}
	}
	return ms
}

// newFaultView builds a minimal adversary view for Schedule-contract
// tests.
func newFaultView(p int, now int64) *sim.View {
	return &sim.View{
		Now:     now,
		P:       p,
		T:       p,
		Tasks:   sim.NewTaskLedger(p),
		Crashed: make([]bool, p),
		Halted:  make([]bool, p),
	}
}

func TestRestartingSchedulesCrashAndRevive(t *testing.T) {
	a := NewRestarting(NewFair(2), []RestartEvent{{Pid: 1, CrashAt: 3, ReviveAt: 7}})
	var dec sim.Decision

	v := newFaultView(4, 3)
	a.Schedule(v, &dec)
	if len(dec.Crash) != 1 || dec.Crash[0] != 1 {
		t.Fatalf("at CrashAt: Crash = %v, want [1]", dec.Crash)
	}
	if len(dec.Revive) != 0 {
		t.Fatalf("at CrashAt: Revive = %v, want empty", dec.Revive)
	}

	dec = sim.Decision{}
	v = newFaultView(4, 7)
	v.Crashed[1] = true
	a.Schedule(v, &dec)
	if len(dec.Revive) != 1 || dec.Revive[0] != 1 {
		t.Fatalf("at ReviveAt: Revive = %v, want [1]", dec.Revive)
	}

	// A revive of a processor that never crashed (the engine refused the
	// crash, or the event is stale) is not emitted.
	dec = sim.Decision{}
	v = newFaultView(4, 7)
	a.Schedule(v, &dec)
	if len(dec.Revive) != 0 {
		t.Fatalf("revive of live processor emitted: %v", dec.Revive)
	}
}

// TestRestartingDoesNotReviveForeignCrashes: a processor fail-stopped by
// a composed inner adversary stays down — Restarting revives only the
// crashes it injected itself.
func TestRestartingDoesNotReviveForeignCrashes(t *testing.T) {
	inner := NewCrashing(NewFair(1), []CrashEvent{{Pid: 1, At: 2}})
	a := NewRestarting(inner, []RestartEvent{{Pid: 1, CrashAt: 6, ReviveAt: 8}})

	// t=2: the inner crashing adversary fail-stops pid 1.
	var dec sim.Decision
	v := newFaultView(4, 2)
	a.Schedule(v, &dec)
	if len(dec.Crash) != 1 || dec.Crash[0] != 1 {
		t.Fatalf("inner crash not forwarded: %v", dec.Crash)
	}

	// t=6: Restarting's own crash is a no-op (pid already down).
	dec = sim.Decision{}
	v = newFaultView(4, 6)
	v.Crashed[1] = true
	a.Schedule(v, &dec)
	if len(dec.Crash) != 0 {
		t.Fatalf("re-crashed an already crashed pid: %v", dec.Crash)
	}

	// t=8: the revive must NOT fire — pid 1 was fail-stopped by the
	// inner adversary, not crash-restarted by this wrapper.
	dec = sim.Decision{}
	v = newFaultView(4, 8)
	v.Crashed[1] = true
	a.Schedule(v, &dec)
	if len(dec.Revive) != 0 {
		t.Fatalf("revived a foreign fail-stop crash: %v", dec.Revive)
	}
}

// TestRestartingCedesSameTickCrashToInner: when the inner adversary and
// Restarting schedule the same pid at the same instant (the registry
// defaults collide exactly like this), the inner fail-stop wins and the
// revive never fires.
func TestRestartingCedesSameTickCrashToInner(t *testing.T) {
	inner := NewCrashing(NewFair(1), []CrashEvent{{Pid: 1, At: 5}})
	a := NewRestarting(inner, []RestartEvent{{Pid: 1, CrashAt: 5, ReviveAt: 9}})

	var dec sim.Decision
	v := newFaultView(4, 5)
	a.Schedule(v, &dec)
	if len(dec.Crash) != 1 || dec.Crash[0] != 1 {
		t.Fatalf("same-tick collision: Crash = %v, want exactly the inner's [1]", dec.Crash)
	}

	dec = sim.Decision{}
	v = newFaultView(4, 9)
	v.Crashed[1] = true
	a.Schedule(v, &dec)
	if len(dec.Revive) != 0 {
		t.Fatalf("revived a pid whose same-tick crash the inner adversary owns: %v", dec.Revive)
	}
}

// TestComposedFaultInjectorsSpareLastSurvivor: the survivor guard must
// count crashes an inner adversary recorded in dec this same unit, or a
// composition could kill every processor in one tick.
func TestComposedFaultInjectorsSpareLastSurvivor(t *testing.T) {
	inner := NewCrashing(NewFair(1), []CrashEvent{{Pid: 1, At: 5}})
	for name, outer := range map[string]sim.Adversary{
		"restarting": NewRestarting(inner, []RestartEvent{{Pid: 0, CrashAt: 5, ReviveAt: 20}}),
		"crashing":   NewCrashing(inner, []CrashEvent{{Pid: 0, At: 5}}),
	} {
		var dec sim.Decision
		v := newFaultView(2, 5)
		outer.Schedule(v, &dec)
		if len(dec.Crash) != 1 || dec.Crash[0] != 1 {
			t.Errorf("%s over crashing at p=2: Crash = %v, want only the inner's [1] (last survivor spared)", name, dec.Crash)
		}
	}
}

// TestRestartingReusableAcrossRuns: crash ownership resets at time 0, so
// one adversary value driving consecutive simulations reproduces the
// first run exactly.
func TestRestartingReusableAcrossRuns(t *testing.T) {
	a := NewRestarting(NewFair(2), []RestartEvent{{Pid: 1, CrashAt: 2, ReviveAt: 8}})
	run := func() *sim.Result {
		ms := coreMachines(4, 16)
		res, err := sim.Run(sim.Config{P: 4, T: 16}, ms, a)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if first.Work != second.Work || first.Messages != second.Messages || first.SolvedAt != second.SolvedAt {
		t.Fatalf("reused adversary diverged: first %+v, second %+v", first, second)
	}
}

func TestRestartingNeverCrashesLastLive(t *testing.T) {
	a := NewRestarting(NewFair(1), []RestartEvent{{Pid: 2, CrashAt: 5, ReviveAt: 9}})
	v := newFaultView(3, 5)
	v.Crashed[0] = true
	v.Crashed[1] = true // pid 2 is the last live processor
	var dec sim.Decision
	a.Schedule(v, &dec)
	if len(dec.Crash) != 0 {
		t.Fatalf("crashed the last live processor: %v", dec.Crash)
	}
}

func TestRestartingClampsNextWake(t *testing.T) {
	// An all-slow inner adversary promises idleness across period
	// boundaries; the promise must be clamped to pending crash AND revive
	// instants or the engine's fast-forward would skip them.
	slow := []int{0, 1, 2, 3}
	inner := NewSlowSet(4, slow, 10)
	a := NewRestarting(inner, []RestartEvent{{Pid: 1, CrashAt: 12, ReviveAt: 16}})

	v := newFaultView(4, 11)
	var dec sim.Decision
	a.Schedule(v, &dec)
	if dec.NextWake != 12 {
		t.Fatalf("NextWake = %d, want clamp to pending crash at 12", dec.NextWake)
	}

	v = newFaultView(4, 13)
	v.Crashed[1] = true
	dec = sim.Decision{}
	a.Schedule(v, &dec)
	if dec.NextWake != 16 {
		t.Fatalf("NextWake = %d, want clamp to pending revive at 16", dec.NextWake)
	}
}

func TestOmittingWindows(t *testing.T) {
	a := NewOmitting(NewFair(2), []OmitWindow{{Pid: 1, From: 5, Until: 9}}, nil)
	cases := []struct {
		from   int
		sentAt int64
		want   bool
	}{
		{1, 5, true},
		{1, 8, true},
		{1, 9, false}, // half-open window
		{1, 4, false},
		{0, 6, false}, // other sender
	}
	for _, c := range cases {
		if got := a.OmitsAt(c.from, c.sentAt); got != c.want {
			t.Errorf("OmitsAt(%d, %d) = %v, want %v", c.from, c.sentAt, got, c.want)
		}
		if got := a.Omit(c.from, 3, c.sentAt); got != c.want {
			t.Errorf("Omit(%d, 3, %d) = %v, want %v", c.from, c.sentAt, got, c.want)
		}
	}
}

func TestOmittingToSubset(t *testing.T) {
	a := NewOmitting(NewFair(2), []OmitWindow{{Pid: 0, From: 0, Until: 100}}, []int{2, 3})
	for to := 0; to < 5; to++ {
		want := to == 2 || to == 3
		if got := a.Omit(0, to, 10); got != want {
			t.Errorf("Omit(0, %d, 10) = %v, want %v (subset {2,3})", to, got, want)
		}
	}
}

// TestFaultCombinatorsForwardExtensions asserts the combinators stay on
// the engine's fast paths exactly when their inner adversary does.
func TestFaultCombinatorsForwardExtensions(t *testing.T) {
	fair := NewFair(3)
	for name, adv := range map[string]sim.Adversary{
		"restarting": NewRestarting(fair, nil),
		"omitting":   NewOmitting(fair, nil, nil),
	} {
		ud, ok := adv.(sim.UniformDelayer)
		if !ok {
			t.Fatalf("%s: no UniformDelayer", name)
		}
		if dl, uok := ud.DelayUniform(0, 0); !uok || dl != 3 {
			t.Errorf("%s(fair): DelayUniform = (%d, %v), want (3, true)", name, dl, uok)
		}
		out := make([]int64, 4)
		adv.(sim.MulticastDelayer).DelayMulticast(0, 0, out)
		for j := 1; j < 4; j++ {
			if out[j] != 3 {
				t.Errorf("%s(fair): DelayMulticast out[%d] = %d, want 3", name, j, out[j])
			}
		}
	}
}

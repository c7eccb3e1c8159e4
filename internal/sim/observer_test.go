package sim_test

import (
	"reflect"
	"testing"

	"doall/internal/adversary"
	"doall/internal/core"
	"doall/internal/sim"
)

// countingObserver tallies every hook so the counts can be reconciled
// against the engine's own accounting.
type countingObserver struct {
	steps      int64
	sent       int64 // sum of recipients over OnMulticast
	multicasts int64
	delivered  int64
	crashes    int64
	revives    int64
	omits      int64
	solvedAt   int64
	solvedHits int
}

func (c *countingObserver) OnStep(pid int, now int64, r *sim.StepResult) { c.steps++ }
func (c *countingObserver) OnMulticast(from int, now int64, payload any, recipients int) {
	c.multicasts++
	c.sent += int64(recipients)
}
func (c *countingObserver) OnDeliver(m sim.Message) { c.delivered++ }
func (c *countingObserver) OnCrash(pid int, now int64) {
	c.crashes++
}
func (c *countingObserver) OnRevive(pid int, now int64) {
	c.revives++
}
func (c *countingObserver) OnOmit(from, to int, sentAt int64) {
	c.omits++
}
func (c *countingObserver) OnSolved(now int64, res *sim.Result) {
	c.solvedHits++
	c.solvedAt = now
}

// matchResult checks the observer's hook totals against the whole-run
// event counts the engine keeps in the Result.
func (c *countingObserver) matchResult(t *testing.T, res *sim.Result) {
	t.Helper()
	solved := int64(0)
	if res.Solved {
		solved = 1
	}
	for _, f := range []struct {
		name      string
		obs, want int64
	}{
		{"OnStep vs TotalSteps", c.steps, res.TotalSteps},
		{"OnMulticast recipients vs TotalMessages", c.sent, res.TotalMessages},
		{"OnMulticast vs Multicasts", c.multicasts, res.Multicasts},
		{"OnCrash vs Crashes", c.crashes, res.Crashes},
		{"OnRevive vs Revivals", c.revives, res.Revivals},
		{"OnOmit vs Omissions", c.omits, res.Omissions},
		{"OnSolved vs Solved", int64(c.solvedHits), solved},
	} {
		if f.obs != f.want {
			t.Errorf("%s: observer %d, Result %d", f.name, f.obs, f.want)
		}
	}
}

func TestObserverCountsMatchResult(t *testing.T) {
	const p, tasks = 6, 48
	obs := &countingObserver{}
	ms := core.NewPaRan1(p, tasks, 11)
	adv := adversary.NewCrashing(adversary.NewFair(3), []adversary.CrashEvent{
		{Pid: 0, At: 2}, {Pid: 1, At: 4},
	})
	res, err := sim.Run(sim.Config{P: p, T: tasks, Observer: obs}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	if obs.steps != res.TotalSteps {
		t.Errorf("OnStep fired %d times, TotalSteps = %d", obs.steps, res.TotalSteps)
	}
	if obs.sent != res.TotalMessages {
		t.Errorf("OnMulticast recipients sum %d, TotalMessages = %d", obs.sent, res.TotalMessages)
	}
	// Deliveries to crashed/halted processors are dropped, so delivered ≤ sent.
	if obs.delivered > obs.sent {
		t.Errorf("delivered %d > sent %d", obs.delivered, obs.sent)
	}
	if obs.delivered == 0 {
		t.Error("no deliveries observed")
	}
	if obs.crashes != 2 {
		t.Errorf("OnCrash fired %d times, want 2", obs.crashes)
	}
	obs.matchResult(t, res)
	if obs.solvedHits != 1 || obs.solvedAt != res.SolvedAt {
		t.Errorf("OnSolved fired %d times at %d, want once at %d", obs.solvedHits, obs.solvedAt, res.SolvedAt)
	}
}

// TestObserverDoesNotPerturbResults asserts the hooks are pure taps: the
// same execution with a nil observer, a counting observer, and a stacked
// MultiObserver produces byte-identical Results.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	const p, tasks = 5, 32
	run := func(obs sim.Observer) *sim.Result {
		t.Helper()
		ms := core.NewPaRan2(p, tasks, 9)
		res, err := sim.Run(sim.Config{P: p, T: tasks, Observer: obs}, ms, adversary.NewRandom(4, 0.7, 21))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	counted := run(&countingObserver{})
	stacked := run(sim.MultiObserver{nil, &countingObserver{}, &sim.FuncObserver{}})
	if !reflect.DeepEqual(bare, counted) {
		t.Fatalf("counting observer perturbed the Result:\nbare:     %+v\nobserved: %+v", bare, counted)
	}
	if !reflect.DeepEqual(bare, stacked) {
		t.Fatalf("MultiObserver perturbed the Result:\nbare:    %+v\nstacked: %+v", bare, stacked)
	}
}

func TestFuncObserverNilFieldsSafe(t *testing.T) {
	ms := core.NewAllToAll(2, 4)
	// Only one hook wired; the rest must be safely skipped.
	var solved bool
	obs := &sim.FuncObserver{Solved: func(now int64, res *sim.Result) { solved = true }}
	if _, err := sim.Run(sim.Config{P: 2, T: 4, Observer: obs}, ms, adversary.NewFair(1)); err != nil {
		t.Fatal(err)
	}
	if !solved {
		t.Fatal("Solved hook never fired")
	}
}

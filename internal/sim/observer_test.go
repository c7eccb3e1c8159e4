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

// gossip is a point-to-point machine: processor i performs tasks i, i+p,
// … one per step, sends its done count to every other processor with
// individual Sends, and halts once the counts it knows add up to t. It
// exercises the engines' Sends paths, which no registered algorithm uses.
type gossip struct {
	pid, p, t int
	next      int
	known     []int
}

func newGossip(p, t int) []sim.Machine {
	ms := make([]sim.Machine, p)
	for i := range ms {
		ms[i] = &gossip{pid: i, p: p, t: t, next: i, known: make([]int, p)}
	}
	return ms
}

func (g *gossip) Step(now int64, inbox []sim.Delivery) sim.StepResult {
	for _, d := range inbox {
		if n := d.Payload().(int); n > g.known[d.From()] {
			g.known[d.From()] = n
		}
	}
	var r sim.StepResult
	if g.next < g.t {
		r.Perform(g.next)
		g.next += g.p
		g.known[g.pid]++
	}
	for j := 0; j < g.p; j++ {
		if j != g.pid {
			r.Sends = append(r.Sends, sim.Send{To: j, Payload: g.known[g.pid]})
		}
	}
	r.Halt = g.KnowsAllDone()
	return r
}

func (g *gossip) KnowsAllDone() bool {
	sum := 0
	for _, n := range g.known {
		sum += n
	}
	return sum == g.t
}

// TestResultCountsPointToPointSends pins the whole-run event counts on
// the Sends paths, omitted and kept, across the reference engine, the
// sequential engine (observed and not) and the staged sharded tick.
func TestResultCountsPointToPointSends(t *testing.T) {
	const p, tasks, d = 8, 40, 2
	adv := func() sim.Adversary {
		return adversary.NewOmitting(
			adversary.NewRestarting(adversary.NewFair(d), []adversary.RestartEvent{
				{Pid: 3, CrashAt: 2, ReviveAt: 5},
			}),
			[]adversary.OmitWindow{{Pid: 1, From: 0, Until: 4}, {Pid: 6, From: 2, Until: 3}},
			[]int{0, 2, 5})
	}
	cfg := sim.Config{P: p, T: tasks}
	ref, err := sim.RunLegacy(cfg, newGossip(p, tasks), adv())
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Solved || ref.Omissions == 0 || ref.Crashes != 1 || ref.Revivals != 1 {
		t.Fatalf("scenario does not exercise the counts: %+v", ref)
	}
	obs := &countingObserver{}
	ocfg := cfg
	ocfg.Observer = obs
	observed, err := sim.Run(ocfg, newGossip(p, tasks), adv())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, observed) {
		t.Fatalf("observed run diverged from the reference:\nref: %+v\ngot: %+v", ref, observed)
	}
	obs.matchResult(t, observed)
	for _, shards := range []int{1, 2, 4} {
		scfg := cfg
		scfg.Shards = shards
		eng := sim.NewEngine()
		got, err := eng.Run(scfg, newGossip(p, tasks), adv())
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d diverged from the reference:\nref: %+v\ngot: %+v", shards, ref, got)
		}
	}
}

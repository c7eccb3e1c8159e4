package doall_test

import (
	"sync/atomic"
	"testing"
	"time"

	"doall"
)

func TestPublicAPISimulateDA(t *testing.T) {
	perms := doall.FindSchedules(2, 50, 1)
	ms, err := doall.NewDA(doall.DAConfig{P: 4, T: 32, Q: 2, Perms: perms})
	if err != nil {
		t.Fatal(err)
	}
	res, err := doall.Simulate(doall.SimConfig{P: 4, T: 32}, ms, doall.NewFairAdversary(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	if res.Work >= 4*32 {
		t.Fatalf("work %d not subquadratic at d=2", res.Work)
	}
}

func TestPublicAPIPaFamily(t *testing.T) {
	for name, ms := range map[string][]doall.Machine{
		"PaRan1": doall.NewPaRan1(4, 16, 3),
		"PaRan2": doall.NewPaRan2(4, 16, 3),
	} {
		res, err := doall.Simulate(doall.SimConfig{P: 4, T: 16}, ms, doall.NewFairAdversary(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Solved {
			t.Fatalf("%s: not solved", name)
		}
	}

	sched := doall.FindDelaySchedules(4, 4, 2, 20, 4) // n = min(p,t) jobs
	ms, err := doall.NewPaDet(4, 16, sched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doall.Simulate(doall.SimConfig{P: 4, T: 16}, ms, doall.NewFairAdversary(2)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICrashes(t *testing.T) {
	ms := doall.NewPaRan1(3, 12, 5)
	adv := doall.NewCrashingAdversary(doall.NewFairAdversary(2), []doall.CrashEvent{
		{Pid: 0, At: 1}, {Pid: 1, At: 2},
	})
	res, err := doall.Simulate(doall.SimConfig{P: 3, T: 12}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("survivor did not finish")
	}
}

func TestPublicAPILowerBoundAdversaries(t *testing.T) {
	perms := doall.FindSchedules(2, 20, 6)
	ms, err := doall.NewDA(doall.DAConfig{P: 4, T: 64, Q: 2, Perms: perms})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doall.Simulate(doall.SimConfig{P: 4, T: 64}, ms,
		doall.NewLowerBoundAdversaryDet(4, 64)); err != nil {
		t.Fatal(err)
	}

	ms2 := doall.NewPaRan2(4, 64, 7)
	if _, err := doall.Simulate(doall.SimConfig{P: 4, T: 64}, ms2,
		doall.NewLowerBoundAdversaryRand(4, 64)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExecuteRuntime(t *testing.T) {
	var hits atomic.Int64
	cfg := doall.DefaultRunConfig(3, 12, 2)
	cfg.Unit = 50 * time.Microsecond
	cfg.Task = func(id int) { hits.Add(1) }
	rep, err := doall.Execute(cfg, doall.NewPaRan1(3, 12, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved {
		t.Fatal("not solved")
	}
	if hits.Load() < 12 {
		t.Fatalf("task body ran %d times, want ≥ 12", hits.Load())
	}
}

func TestPublicAPIBounds(t *testing.T) {
	if doall.LowerBound(8, 64, 4) <= 64 {
		t.Fatal("lower bound should exceed t for p,d > 1")
	}
	if doall.DAUpperBound(8, 64, 4, 0.5) <= 0 || doall.PAUpperBound(8, 64, 4) <= 0 {
		t.Fatal("upper bounds must be positive")
	}
}

func TestPublicAPIScenario(t *testing.T) {
	sc := doall.Scenario{Algorithm: "PaRan1", Adversary: "crashing(slow-set(fair),crash=0@2)", P: 4, T: 16, D: 2, Seed: 3}
	res, err := doall.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved() || res.Sim == nil {
		t.Fatalf("scenario run: %+v", res)
	}
	for _, name := range []string{"fair", "random", "crashing", "slow-set", "stage-det", "stage-online"} {
		found := false
		for _, n := range doall.RegisteredAdversaries() {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("adversary %q not pre-registered", name)
		}
	}
	if len(doall.RegisteredAlgorithms()) < 6 {
		t.Fatalf("algorithms registered: %v", doall.RegisteredAlgorithms())
	}
}

func TestPublicAPISweep(t *testing.T) {
	rep := doall.NewSweepReport(doall.SweepConfig{
		Algos:       []string{"PaRan1"},
		Ps:          []int{4},
		Ts:          []int{16},
		Ds:          []int64{2},
		Adversaries: []string{"fair", "crashing"},
		BaseSeed:    1,
	})
	if len(rep.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell %+v failed", c)
		}
	}
}

func TestPublicAPIObserver(t *testing.T) {
	var steps int64
	ms := doall.NewPaRan1(4, 16, 3)
	res, err := doall.Simulate(doall.SimConfig{P: 4, T: 16, Observer: &doall.FuncObserver{
		Step: func(pid int, now int64, r *doall.StepResult) { steps++ },
	}}, ms, doall.NewFairAdversary(2))
	if err != nil {
		t.Fatal(err)
	}
	if steps != res.TotalSteps {
		t.Fatalf("observed %d steps, engine counted %d", steps, res.TotalSteps)
	}
}

func TestPublicAPIContention(t *testing.T) {
	s := doall.FindSchedules(3, 100, 9)
	c := doall.Contention(s)
	if c < 3 || c > 9 {
		t.Fatalf("Cont out of [n, n²]: %d", c)
	}
	if doall.DContention(s, 3) != 9 {
		t.Fatalf("(n)-Cont should be n² = 9")
	}
}

// TestPublicAPIFaultPlane pins the crash-restart and omission surface:
// the adversary constructors, the Rejoiner contract on public machines,
// and the new observer hooks, all through exported names only.
func TestPublicAPIFaultPlane(t *testing.T) {
	const p, tasks, d = 5, 20, 2
	ms := doall.NewPaRan1(p, tasks, 7)
	for i, m := range ms {
		if _, ok := m.(doall.MachineRejoiner); !ok {
			t.Fatalf("machine %d does not implement MachineRejoiner", i)
		}
	}
	var revives, omits int
	adv := doall.NewRestartingAdversary(
		doall.NewOmittingAdversary(doall.NewFairAdversary(d), []doall.OmitWindow{
			{Pid: 2, From: 0, Until: 10},
		}, []int{0}),
		[]doall.RestartEvent{{Pid: 1, CrashAt: 2, ReviveAt: 6}},
	)
	// The restarting wrapper must answer with the inner adversary's
	// omission faults: pid 2's copy to 0 is dropped inside the window, its
	// copy to 1 and pid 3's copies are not.
	omitted := func(from, to int) bool {
		out := make([]int64, p)
		return adv.Delays(from, 5, out) == 0 && out[to] == doall.Omitted
	}
	if !omitted(2, 0) || omitted(2, 1) || omitted(3, 0) {
		t.Fatal("forwarded omission does not match the inner window/subset")
	}
	res, err := doall.Simulate(doall.SimConfig{P: p, T: tasks, Observer: &doall.FuncObserver{
		Revive: func(pid int, now int64) { revives++ },
		Omit:   func(from, to int, sentAt int64) { omits++ },
	}}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	if revives != 1 {
		t.Fatalf("OnRevive fired %d times, want 1", revives)
	}
	if omits == 0 {
		t.Fatal("no OnOmit events despite an omission window")
	}
}

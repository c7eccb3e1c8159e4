package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"doall/internal/adversary"
	"doall/internal/core"
	"doall/internal/perm"
	"doall/internal/sim"
)

// legacyBuildMachines is a verbatim copy of the pre-registry harness
// switch. The registry builders must reproduce it bit for bit: same seed
// stream, same schedule search, same machines.
func legacyBuildMachines(sc Scenario) ([]sim.Machine, error) {
	sc = sc.WithDefaults()
	r := rand.New(rand.NewSource(sc.Seed))
	switch sc.Algorithm {
	case "AllToAll":
		return core.NewAllToAll(sc.P, sc.T), nil
	case "ObliDo":
		jobs := core.NewJobs(sc.P, sc.T)
		l := perm.RandomList(sc.P, jobs.N, r)
		return core.NewObliDo(sc.P, sc.T, l), nil
	case "DA":
		l := perm.FindLowContentionList(sc.Q, sc.Q, sc.SearchRestarts, r).List
		return core.NewDA(core.DAConfig{P: sc.P, T: sc.T, Q: sc.Q, Perms: l})
	case "PaRan1":
		return core.NewPaRan1(sc.P, sc.T, sc.Seed), nil
	case "PaRan2":
		return core.NewPaRan2(sc.P, sc.T, sc.Seed), nil
	case "PaDet":
		jobs := core.NewJobs(sc.P, sc.T)
		l := perm.FindLowDContentionList(sc.P, jobs.N, int(sc.D), sc.SearchRestarts, r).List
		return core.NewPaDet(sc.P, sc.T, l)
	}
	return nil, fmt.Errorf("legacy: unknown algorithm %q", sc.Algorithm)
}

// legacyBuildAdversary constructs each pre-registered adversary directly,
// the way pre-Scenario code did — including the standalone SlowSet, which
// the registry replaces with the composable SlowSetOver(fair).
func legacyBuildAdversary(sc Scenario, name string) (sim.Adversary, error) {
	sc = sc.WithDefaults()
	switch name {
	case "fair":
		return adversary.NewFair(sc.D), nil
	case "random":
		return adversary.NewRandom(sc.D, 0.75, sc.Seed^0x5eed), nil
	case "crashing":
		var events []adversary.CrashEvent
		for i := 1; i <= (sc.P-1)/2; i++ {
			events = append(events, adversary.CrashEvent{Pid: i, At: int64(i) * sc.D})
		}
		return adversary.NewCrashing(adversary.NewFair(sc.D), events), nil
	case "slow-set":
		var slow []int
		for i := sc.P / 2; i < sc.P; i++ {
			slow = append(slow, i)
		}
		return adversary.NewSlowSet(sc.D, slow, 4), nil
	case "stage-det":
		return adversary.NewStageDeterministic(sc.D, sc.T), nil
	case "stage-online":
		return adversary.NewStageOnline(sc.D, sc.T), nil
	}
	return nil, fmt.Errorf("legacy: unknown adversary %q", name)
}

// TestScenarioMatchesLegacyPath is the redesign's acceptance contract:
// for every pre-registered algorithm × adversary pair, running through
// the declarative Scenario path yields byte-identical Results to direct
// legacy construction run on the per-message reference engine
// (sim.RunLegacy).
func TestScenarioMatchesLegacyPath(t *testing.T) {
	algos := []string{AlgoAllToAll, AlgoObliDo, AlgoDA, AlgoPaRan1, AlgoPaRan2, AlgoPaDet}
	advs := []string{AdvFair, AdvRandom, AdvCrashing, AdvSlowSet, AdvStageDet, AdvStageOnline}
	sizes := []struct{ p, t int }{{4, 16}, {7, 32}}

	for _, algo := range algos {
		for _, adv := range advs {
			for _, size := range sizes {
				for _, d := range []int64{1, 3} {
					sc := Scenario{Algorithm: algo, Adversary: adv, P: size.p, T: size.t, D: d, Seed: 17}
					name := fmt.Sprintf("%s/%s/p%d-t%d-d%d", algo, adv, size.p, size.t, d)
					t.Run(name, func(t *testing.T) {
						msL, err := legacyBuildMachines(sc)
						if err != nil {
							t.Fatal(err)
						}
						advL, err := legacyBuildAdversary(sc, adv)
						if err != nil {
							t.Fatal(err)
						}
						legacy, errL := sim.RunLegacy(sim.Config{P: sc.P, T: sc.T}, msL, advL)

						fresh, errN := Run(sc)
						if (errL == nil) != (errN == nil) {
							t.Fatalf("error mismatch: legacy=%v scenario=%v", errL, errN)
						}
						if errL != nil {
							return
						}
						if !reflect.DeepEqual(legacy, fresh.Sim) {
							t.Fatalf("Result diverged:\nlegacy:   %+v\nscenario: %+v", legacy, fresh.Sim)
						}
					})
				}
			}
		}
	}
}

// TestScenarioJSONRoundTrip asserts marshal → unmarshal → run reproduces
// the original Result exactly, for flat and composed adversaries.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sc := range []Scenario{
		{Algorithm: AlgoDA, P: 5, T: 32, Q: 2, D: 3, Seed: 9},
		{Algorithm: AlgoPaRan1, Adversary: "random(activity=0.6)", P: 6, T: 24, D: 4, Seed: 2},
		{Algorithm: AlgoPaRan2, Adversary: "crashing(slow-set(fair,period=3),crash=0@2)", P: 4, T: 16, D: 2, Seed: 5},
	} {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse(%s): %v", data, err)
		}
		if back != sc {
			t.Fatalf("round trip changed the spec:\nin:  %+v\nout: %+v", sc, back)
		}
		orig, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := Run(back)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(orig.Sim, replay.Sim) {
			t.Fatalf("round-tripped scenario diverged:\norig:   %+v\nreplay: %+v", orig.Sim, replay.Sim)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"algorithm":"DA","p":4,"t":8,"bogus":1}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
}

func TestUnknownNamesError(t *testing.T) {
	if _, err := (Scenario{Algorithm: "nope", P: 2, T: 2}).Machines(); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm: %v", err)
	}
	if _, err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "nope", P: 2, T: 2}).BuildAdversary(); err == nil || !strings.Contains(err.Error(), "unknown adversary") {
		t.Fatalf("unknown adversary: %v", err)
	}
	if _, err := Run(Scenario{Algorithm: AlgoPaRan1, P: 2, T: 2, Backend: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend: %v", err)
	}
	if err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "crashing(crash=zap)", P: 2, T: 2}).Validate(); err == nil {
		t.Fatal("malformed crash event accepted")
	}
	if err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "fair(dealy=2)", P: 2, T: 2}).Validate(); err == nil {
		t.Fatal("typoed parameter key accepted")
	}
	if err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "stage-det(fair)", P: 2, T: 2}).Validate(); err == nil {
		t.Fatal("inner adversary on a non-combinator accepted")
	}
	if err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "crashing(crash=9@5)", P: 4, T: 8}).Validate(); err == nil || !strings.Contains(err.Error(), "outside [0, 4)") {
		t.Fatalf("out-of-range crash pid accepted: %v", err)
	}
	if err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "crashing(crash=-1@5)", P: 4, T: 8}).Validate(); err == nil {
		t.Fatal("negative crash pid accepted")
	}
	if err := (Scenario{Algorithm: AlgoPaRan1, Adversary: "crashing(crash=1@-2)", P: 4, T: 8}).Validate(); err == nil {
		t.Fatal("negative crash time accepted")
	}
}

// TestSlowSetDefaultInnerKeepsFastForward pins the builder choice: a
// flat slow-set expression builds the standalone SlowSet (which promises
// NextWake across all-slow idle stretches), while an explicit inner
// builds the combinator.
func TestSlowSetDefaultInnerKeepsFastForward(t *testing.T) {
	sc := Scenario{Algorithm: AlgoPaRan1, P: 4, T: 8, D: 2}
	sc.Adversary = "slow-set(period=6)"
	adv, err := sc.BuildAdversary()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adv.(*adversary.SlowSet); !ok {
		t.Fatalf("flat slow-set built %T, want *adversary.SlowSet", adv)
	}
	sc.Adversary = "slow-set(fair,period=6)"
	adv, err = sc.BuildAdversary()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adv.(*adversary.SlowSetOver); !ok {
		t.Fatalf("slow-set(fair) built %T, want *adversary.SlowSetOver", adv)
	}
}

// TestRegistryExtension exercises the open-registry story: a user-defined
// algorithm and a user-defined adversary combinator become addressable
// from a declarative spec.
func TestRegistryExtension(t *testing.T) {
	RegisterAlgorithm("test-solo", func(sc Scenario) ([]Machine, error) {
		return core.NewAllToAll(sc.P, sc.T), nil
	})
	RegisterAdversary("test-jitter", func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(1); err != nil {
			return nil, err
		}
		inner, err := ctx.innerOrFair()
		if err != nil {
			return nil, err
		}
		return inner, nil // identity combinator: enough to prove wiring
	})
	res, err := Run(Scenario{Algorithm: "test-solo", Adversary: "test-jitter(fair(delay=1))", P: 3, T: 9, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved() || res.Work() != 27 {
		t.Fatalf("custom registration run: solved=%v work=%d", res.Solved(), res.Work())
	}
	found := false
	for _, n := range Algorithms() {
		if n == "test-solo" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered algorithm missing from Algorithms()")
	}
}

// TestBackendsAgree checks the sim backend against the per-message
// reference engine on the same machines and adversary.
func TestBackendsAgree(t *testing.T) {
	base := Scenario{Algorithm: AlgoDA, P: 4, T: 16, D: 2, Seed: 3}
	simRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	legacyRes := runLegacy(t, base)
	if !reflect.DeepEqual(simRes.Sim, legacyRes) {
		t.Fatalf("sim and sim.RunLegacy diverged:\nsim:    %+v\nlegacy: %+v", simRes.Sim, legacyRes)
	}
}

// runLegacy runs sc's machines and adversary on the per-message
// reference engine, sim.RunLegacy.
func runLegacy(t *testing.T, sc Scenario) *sim.Result {
	t.Helper()
	sc = sc.WithDefaults()
	ms, err := sc.Machines()
	if err != nil {
		t.Fatal(err)
	}
	adv, err := sc.BuildAdversary()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunLegacy(sim.Config{P: sc.P, T: sc.T, MaxSteps: sc.MaxSteps}, ms, adv)
	if err != nil {
		t.Fatalf("sim.RunLegacy: %v", err)
	}
	return res
}

func TestRuntimeBackend(t *testing.T) {
	var hits atomic.Int64
	res, err := RunWith(Scenario{Algorithm: AlgoPaRan1, Backend: BackendRuntime, P: 3, T: 12, D: 2, Seed: 8},
		Options{Task: func(id int) { hits.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == nil || !res.Solved() {
		t.Fatalf("runtime backend: %+v", res)
	}
	if hits.Load() < 12 {
		t.Fatalf("task body ran %d times, want ≥ 12", hits.Load())
	}
	if res.Work() != res.Runtime.Steps || res.Messages() != res.Runtime.Messages {
		t.Fatal("Result accessors disagree with runtime report")
	}
}

func TestRunAvgMatchesManualAverage(t *testing.T) {
	sc := Scenario{Algorithm: AlgoAllToAll, P: 3, T: 9, D: 1, Trials: 3}
	avg, err := RunAvg(sc)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Work != 27 || avg.Trials != 3 {
		t.Fatalf("avg = %+v, want work 27 over 3 trials", avg)
	}
	if _, err := RunAvg(Scenario{Algorithm: AlgoAllToAll, Backend: BackendRuntime, P: 2, T: 4, D: 1}); err == nil {
		t.Fatal("RunAvg on runtime backend accepted")
	}
}

func TestScenarioObserverThreaded(t *testing.T) {
	var solved bool
	_, err := RunWith(Scenario{Algorithm: AlgoPaRan2, P: 4, T: 16, D: 2, Seed: 1},
		Options{Observer: &sim.FuncObserver{Solved: func(now int64, res *sim.Result) { solved = true }}})
	if err != nil {
		t.Fatal(err)
	}
	if !solved {
		t.Fatal("observer not threaded through scenario run")
	}
}

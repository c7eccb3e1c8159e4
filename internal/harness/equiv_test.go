package harness

import (
	"fmt"
	"reflect"
	"testing"

	"doall/internal/adversary"
	"doall/internal/scenario"
	"doall/internal/sim"
)

// TestEngineEquivalence asserts the tentpole contract of the multicast-
// native engine: for every algorithm × adversary pair, sim.Run reproduces
// sim.RunLegacy's Result exactly — Work, Messages, SolvedAt, primary and
// secondary executions, byte volume, per-processor work, everything.
// Machines and adversaries are rebuilt from identical seeds for each
// engine so both executions start from identical state.
func TestEngineEquivalence(t *testing.T) {
	algos := []string{scenario.AlgoAllToAll, scenario.AlgoObliDo, scenario.AlgoDA, scenario.AlgoPaRan1, scenario.AlgoPaRan2, scenario.AlgoPaDet}
	sizes := []struct{ p, t int }{{2, 8}, {5, 16}, {16, 64}}
	advs := []string{"fair", "random", "crash-fair", "crash-random", "slow-all", "crash-slow-all", "crash-stage-det", "stage-det", "stage-online",
		"restart-fair", "restart-random", "restart-slow-all", "omit-fair", "omit-random", "omit-subset-fair", "restart-omit-fair"}

	for _, algo := range algos {
		for _, size := range sizes {
			for _, d := range []int64{1, 3} {
				for _, advName := range advs {
					sc := scenario.Scenario{Algorithm: algo, P: size.p, T: size.t, D: d, Seed: 17}
					name := fmt.Sprintf("%s/p%d-t%d-d%d/%s", algo, size.p, size.t, d, advName)
					t.Run(name, func(t *testing.T) {
						legacy, errL := runEquivCase(sc, advName, sim.RunLegacy)
						fresh, errN := runEquivCase(sc, advName, sim.Run)
						if (errL == nil) != (errN == nil) {
							t.Fatalf("error mismatch: legacy=%v new=%v", errL, errN)
						}
						if !reflect.DeepEqual(legacy, fresh) {
							t.Fatalf("Result diverged:\nlegacy: %+v\nnew:    %+v", legacy, fresh)
						}
					})
				}
			}
		}
	}
}

// runEquivCase builds fresh machines and a fresh adversary for the
// scenario and executes them with the given engine.
func runEquivCase(s scenario.Scenario, advName string, engine func(sim.Config, []sim.Machine, sim.Adversary) (*sim.Result, error)) (*sim.Result, error) {
	ms, err := s.Machines()
	if err != nil {
		return nil, fmt.Errorf("build machines: %w", err)
	}
	adv, err := buildEquivAdversary(s, advName)
	if err != nil {
		return nil, err
	}
	return engine(sim.Config{P: s.P, T: s.T}, ms, adv)
}

func buildEquivAdversary(s scenario.Scenario, advName string) (sim.Adversary, error) {
	crashes := []adversary.CrashEvent{{Pid: 0, At: 1}, {Pid: s.P - 1, At: 3}}
	switch advName {
	case "fair":
		return adversary.NewFair(s.D), nil
	case "random":
		return adversary.NewRandom(s.D, 0.6, s.Seed^0xbeef), nil
	case "crash-fair":
		return adversary.NewCrashing(adversary.NewFair(s.D), crashes), nil
	case "crash-random":
		return adversary.NewCrashing(adversary.NewRandom(s.D, 0.6, s.Seed^0xbeef), crashes), nil
	case "slow-all":
		// Every processor slow: the schedule is empty off-period, so the
		// new engine's idle fast-forward engages and must stay exact.
		slow := make([]int, s.P)
		for i := range slow {
			slow[i] = i
		}
		return adversary.NewSlowSet(s.D, slow, 5), nil
	case "crash-slow-all":
		// Crash events timed inside the idle stretches of an all-slow
		// schedule (period 5, crashes at t=1 and t=3): the fast-forward
		// must not jump over them (Crashing clamps NextWake).
		slow := make([]int, s.P)
		for i := range slow {
			slow[i] = i
		}
		return adversary.NewCrashing(adversary.NewSlowSet(s.D, slow, 5), crashes), nil
	case "crash-stage-det":
		return adversary.NewCrashing(adversary.NewStageDeterministic(s.D, s.T), crashes), nil
	case "stage-det":
		return adversary.NewStageDeterministic(s.D, s.T), nil
	case "stage-online":
		return adversary.NewStageOnline(s.D, s.T), nil
	case "restart-fair":
		return adversary.NewRestarting(adversary.NewFair(s.D), restartsFor(s)), nil
	case "restart-random":
		return adversary.NewRestarting(adversary.NewRandom(s.D, 0.6, s.Seed^0xbeef), restartsFor(s)), nil
	case "restart-slow-all":
		// Revives timed inside the idle stretches of an all-slow schedule:
		// the engine's fast-forward must not jump over them (Restarting
		// clamps NextWake).
		slow := make([]int, s.P)
		for i := range slow {
			slow[i] = i
		}
		return adversary.NewRestarting(adversary.NewSlowSet(s.D, slow, 5), restartsFor(s)), nil
	case "omit-fair":
		return adversary.NewOmitting(adversary.NewFair(s.D), omitsFor(s), nil), nil
	case "omit-random":
		return adversary.NewOmitting(adversary.NewRandom(s.D, 0.6, s.Seed^0xbeef), omitsFor(s), nil), nil
	case "omit-subset-fair":
		// Deliver-to-subset omission: only the copies addressed to the
		// first two processors are dropped.
		return adversary.NewOmitting(adversary.NewFair(s.D), omitsFor(s), []int{0, 1}), nil
	case "restart-omit-fair":
		// The full fault plane composed: restartable crashes over
		// message omission over fixed delays.
		return adversary.NewRestarting(
			adversary.NewOmitting(adversary.NewFair(s.D), omitsFor(s), nil),
			restartsFor(s)), nil
	}
	return nil, fmt.Errorf("unknown equivalence adversary %q", advName)
}

// restartsFor schedules crash-restart faults that exercise both the
// downtime and the rebased re-entry: the first and last processors go
// down early and revive mid-run.
func restartsFor(s scenario.Scenario) []adversary.RestartEvent {
	return []adversary.RestartEvent{
		{Pid: 0, CrashAt: 1, ReviveAt: 1 + 3*s.D},
		{Pid: s.P - 1, CrashAt: 3, ReviveAt: 3 + 5*s.D},
	}
}

// omitsFor schedules omission windows covering the early broadcasts of
// two senders (every send in the window loses its copies).
func omitsFor(s scenario.Scenario) []adversary.OmitWindow {
	return []adversary.OmitWindow{
		{Pid: 0, From: 0, Until: 4 * s.D},
		{Pid: s.P / 2, From: s.D, Until: 6 * s.D},
	}
}

// TestEngineEquivalenceNonUniformDelays drives the engine's per-recipient
// scheduling path (non-uniform delays within one multicast) explicitly:
// a delay that depends on the recipient id defeats the uniform-delay
// single-event fast path.
func TestEngineEquivalenceNonUniformDelays(t *testing.T) {
	for _, algo := range []string{scenario.AlgoDA, scenario.AlgoPaRan1, scenario.AlgoPaDet} {
		sc := scenario.Scenario{Algorithm: algo, P: 8, T: 32, D: 5, Seed: 23}
		build := func() ([]sim.Machine, sim.Adversary, error) {
			ms, err := sc.Machines()
			return ms, &recipientSkewAdv{d: sc.D}, err
		}
		msL, advL, err := build()
		if err != nil {
			t.Fatal(err)
		}
		legacy, errL := sim.RunLegacy(sim.Config{P: sc.P, T: sc.T}, msL, advL)
		msN, advN, err := build()
		if err != nil {
			t.Fatal(err)
		}
		fresh, errN := sim.Run(sim.Config{P: sc.P, T: sc.T}, msN, advN)
		if (errL == nil) != (errN == nil) {
			t.Fatalf("%s: error mismatch: legacy=%v new=%v", algo, errL, errN)
		}
		if !reflect.DeepEqual(legacy, fresh) {
			t.Fatalf("%s: Result diverged:\nlegacy: %+v\nnew:    %+v", algo, legacy, fresh)
		}
	}
}

// recipientSkewAdv schedules everyone and delays each message by a
// deterministic function of the recipient, so one multicast fans out to
// several delivery times.
type recipientSkewAdv struct {
	d int64
}

func (a *recipientSkewAdv) D() int64 { return a.d }

func (a *recipientSkewAdv) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}

func (a *recipientSkewAdv) Delays(from int, sentAt int64, out []int64) int64 {
	for j := range out {
		if j != from {
			out[j] = 1 + (int64(j)+sentAt)%a.d
		}
	}
	return 0
}

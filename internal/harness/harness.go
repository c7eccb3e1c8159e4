// Package harness builds algorithm instances from declarative specs, runs
// them under configurable adversaries in the simulator, and formats the
// results as aligned text or Markdown tables. It is the engine behind
// cmd/experiments and the benchmark suite: every experiment in the E1–E10
// index (AllExperiments) is a function here returning a Table whose rows pair
// measured work/messages with the paper's closed-form bounds.
//
// Construction is registry-driven: Spec is a thin veneer over
// scenario.Scenario, and BuildMachines/BuildAdversary/Execute resolve
// names through the open registries (scenario.RegisterAlgorithm /
// RegisterAdversary) instead of switch statements. Spec.Adversary
// therefore accepts full adversary expressions — "fair", "crashing",
// "crashing(slow-set(fair),crash=0@5)", … — not just flat names.
package harness

import (
	"fmt"

	"doall/internal/scenario"
	"doall/internal/sim"
)

// Algo names a registered Do-All algorithm. It is a plain string alias so
// algorithm lists interoperate with the scenario registry directly.
type Algo = string

// The pre-registered algorithms.
const (
	AlgoAllToAll Algo = scenario.AlgoAllToAll
	AlgoObliDo   Algo = scenario.AlgoObliDo
	AlgoDA       Algo = scenario.AlgoDA
	AlgoPaRan1   Algo = scenario.AlgoPaRan1
	AlgoPaRan2   Algo = scenario.AlgoPaRan2
	AlgoPaDet    Algo = scenario.AlgoPaDet
)

// Adv is an adversary expression over the registered adversary names.
type Adv = string

// The pre-registered adversaries (each also usable as an expression head
// with parameters, e.g. "crashing(crash=0@5)").
const (
	AdvFair        Adv = scenario.AdvFair
	AdvRandom      Adv = scenario.AdvRandom
	AdvCrashing    Adv = scenario.AdvCrashing
	AdvSlowSet     Adv = scenario.AdvSlowSet
	AdvStageDet    Adv = scenario.AdvStageDet
	AdvStageOnline Adv = scenario.AdvStageOnline
)

// Spec declares one simulation run. It mirrors scenario.Scenario field
// for field (Scenario() converts) and is kept for the experiment tables
// and benchmarks that predate the Scenario API.
type Spec struct {
	Algo Algo
	P, T int
	// Q is the progress-tree arity (DA only; default 2).
	Q int
	// D is the message-delay bound.
	D int64
	// Adversary selects the d-adversary expression (default AdvFair).
	Adversary Adv
	// Seed drives all randomness (schedule search, machine randomness,
	// random adversary).
	Seed int64
	// SearchRestarts bounds permutation-list search work (default 32).
	SearchRestarts int
	// MaxSteps overrides the simulator's step cap (0 = default).
	MaxSteps int64
}

// Scenario converts the spec to its declarative form.
func (s Spec) Scenario() scenario.Scenario {
	return scenario.Scenario{
		Algorithm:      s.Algo,
		Adversary:      s.Adversary,
		P:              s.P,
		T:              s.T,
		Q:              s.Q,
		D:              s.D,
		Seed:           s.Seed,
		SearchRestarts: s.SearchRestarts,
		MaxSteps:       s.MaxSteps,
	}.WithDefaults()
}

// BuildMachines constructs the processor machines for the spec through
// the algorithm registry.
func BuildMachines(s Spec) ([]sim.Machine, error) {
	return s.Scenario().Machines()
}

// BuildAdversary constructs the adversary for the spec through the
// adversary registry (resolving combinator expressions).
func BuildAdversary(s Spec) (sim.Adversary, error) {
	return s.Scenario().BuildAdversary()
}

// Execute builds and runs the spec once. Like sim.Run, it returns a
// partial Result alongside step-cap errors.
func Execute(s Spec) (*sim.Result, error) {
	out, err := scenario.Run(s.Scenario())
	if out == nil {
		return nil, err
	}
	return out.Sim, err
}

// Avg holds trial-averaged complexity measures.
type Avg = scenario.Avg

// ExecuteAvg runs the spec `trials` times with seeds seed, seed+1, … and
// averages work, messages, and completion time. Use it for randomized
// algorithms and the random adversary; deterministic spec+seed pairs just
// return the same value each trial.
func ExecuteAvg(s Spec, trials int) (Avg, error) {
	if trials < 1 {
		trials = 1
	}
	sc := s.Scenario()
	sc.Trials = trials
	a, err := scenario.RunAvg(sc)
	if err != nil {
		return Avg{}, fmt.Errorf("harness: %w", err)
	}
	return a, nil
}

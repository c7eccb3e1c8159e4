package doall

import (
	"context"

	"doall/internal/bounds"
	"doall/internal/harness"
	"doall/internal/scenario"
	"doall/internal/sim"
)

// The declarative Scenario API. A Scenario is a JSON-serializable spec —
// algorithm name, adversary expression, problem shape, seed, backend —
// resolved through open registries, so the full algorithm × adversary ×
// (p, t, d) space of the paper is addressable as data:
//
//	sc := doall.Scenario{Algorithm: "DA", Adversary: "crashing(slow-set(fair))", P: 16, T: 1024, D: 8}
//	res, err := doall.RunScenario(sc)
//
// Registries are open: RegisterAlgorithm and RegisterAdversary extend the
// space without touching this module. See internal/scenario for the
// adversary expression grammar (combinators, key=value parameters).
type (
	// Scenario declares one algorithm × adversary × (p, t, d) experiment.
	Scenario = scenario.Scenario
	// ScenarioResult is the outcome of running a Scenario; exactly one of
	// Sim or Runtime is non-nil, matching the backend.
	ScenarioResult = scenario.Result
	// ScenarioOptions carries non-serializable per-run knobs: observers
	// and the runtime backend's task bodies and pacing.
	ScenarioOptions = scenario.Options
	// ScenarioAvg holds trial-averaged complexity measures.
	ScenarioAvg = scenario.Avg
	// AlgorithmBuilder constructs machines for a scenario (registry entry).
	AlgorithmBuilder = scenario.AlgorithmBuilder
	// AdversaryBuilder constructs one adversary-expression node (registry
	// entry).
	AdversaryBuilder = scenario.AdversaryBuilder
	// AdversaryContext is what an AdversaryBuilder receives: parameters
	// and already-built inner adversaries.
	AdversaryContext = scenario.AdversaryContext
)

// Backends a Scenario can run on.
const (
	// BackendSim is the deterministic multicast-native simulator (default).
	BackendSim = scenario.BackendSim
	// BackendRuntime executes machines on real goroutines.
	BackendRuntime = scenario.BackendRuntime
)

// ShardsAuto, assigned to Scenario.Shards or SweepSpec.Shards, resolves
// the intra-run shard count at run time from GOMAXPROCS and the run's
// processor count (see ResolveShards). Results are identical at every
// shard count; only wall-clock time changes.
const ShardsAuto = scenario.ShardsAuto

// ResolveShards translates a requested shard policy (0/1 sequential,
// ShardsAuto, or an explicit count) into the literal shard count a run
// of width p executes with.
func ResolveShards(requested, p int) int { return scenario.ResolveShards(requested, p) }

// RunScenario executes the scenario once on its backend.
func RunScenario(sc Scenario) (*ScenarioResult, error) { return scenario.Run(sc) }

// RunScenarioWith executes the scenario once with options (observer, task
// bodies, runtime pacing).
func RunScenarioWith(sc Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return scenario.RunWith(sc, opts)
}

// RunScenarioAvg runs the scenario sc.Trials times with seeds Seed,
// Seed+1, … and averages work, messages, and completion time (simulator
// backends only).
func RunScenarioAvg(sc Scenario) (ScenarioAvg, error) { return scenario.RunAvg(sc) }

// ParseScenario decodes a JSON scenario document, rejecting unknown
// fields.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// RegisterAlgorithm adds (or replaces) a named algorithm builder in the
// open registry, making it addressable from Scenario.Algorithm.
func RegisterAlgorithm(name string, b AlgorithmBuilder) { scenario.RegisterAlgorithm(name, b) }

// RegisterAdversary adds (or replaces) a named adversary builder, making
// it addressable from Scenario.Adversary expressions (including as a
// combinator over inner adversaries).
func RegisterAdversary(name string, b AdversaryBuilder) { scenario.RegisterAdversary(name, b) }

// RegisteredAlgorithms returns the registered algorithm names, sorted.
func RegisteredAlgorithms() []string { return scenario.Algorithms() }

// RegisteredAdversaries returns the registered adversary names, sorted.
func RegisteredAdversaries() []string { return scenario.Adversaries() }

// Observer hooks. Set SimConfig.Observer (or ScenarioOptions.Observer) to
// tap every engine event — steps, multicasts, deliveries, crashes, and
// the solving instant — without touching the hot path: a nil observer
// costs one branch per event.
type (
	// Observer is the engine hook set (OnStep/OnMulticast/OnDeliver/
	// OnCrash/OnRevive/OnOmit/OnSolved).
	Observer = sim.Observer
	// FuncObserver adapts optional funcs to Observer; nil fields are
	// skipped.
	FuncObserver = sim.FuncObserver
	// NopObserver is an embeddable all-no-op Observer.
	NopObserver = sim.NopObserver
	// MultiObserver fans events out to several observers.
	MultiObserver = sim.MultiObserver
)

// Sweeps: measure whole (algorithm, adversary, p, t, d) grids, sharded
// across workers with deterministic per-cell seeds. cmd/experiments
// -sweep is the CLI front-end; BENCH_*.json files follow SweepReport's
// schema.
type (
	// SweepConfig declares the grid.
	SweepConfig = harness.SweepConfig
	// SweepCell is one measured grid point.
	SweepCell = harness.Cell
	// SweepReport is the JSON envelope of a sweep.
	SweepReport = harness.SweepReport
)

// RunSweep measures every cell of the grid; results are deterministic for
// any worker count.
func RunSweep(c SweepConfig) []SweepCell { return harness.RunSweep(c) }

// NewSweepReport runs the sweep and wraps it for serialization.
func NewSweepReport(c SweepConfig) SweepReport { return harness.NewSweepReport(c) }

// RunSweepContext is RunSweep with cancellation: when ctx is canceled
// (deadline, SIGINT), in-flight cells stop at their next trial boundary,
// unrun cells are stamped with the context error, and the context's
// error is returned alongside the partial grid.
func RunSweepContext(ctx context.Context, c SweepConfig) ([]SweepCell, error) {
	return scenario.RunSweepContext(ctx, c)
}

// NewSweepReportContext is NewSweepReport with cancellation; a canceled
// sweep yields a report with Partial set and the context error returned.
func NewSweepReportContext(ctx context.Context, c SweepConfig) (SweepReport, error) {
	return scenario.NewSweepReportContext(ctx, c)
}

// SweepSpec is the JSON-serializable mirror of SweepConfig — what sweep
// config files and doalld sweep jobs are written in.
type SweepSpec = scenario.SweepSpec

// ParseSweepSpec decodes a JSON sweep spec, rejecting unknown fields.
func ParseSweepSpec(data []byte) (SweepSpec, error) { return scenario.ParseSweepSpec(data) }

// EstimateSweepMemory returns a rough upper estimate, in bytes, of the
// steady-state heap the sweep needs: the per-worker estimate of the
// grid's largest (p, t, d) shape times the concurrent worker count.
// cmd/experiments -maxmem compares it against a budget and fails fast
// instead of OOMing mid-sweep; the estimate deliberately over-
// approximates pools and in-flight snapshot chains.
func EstimateSweepMemory(c SweepConfig) int64 { return scenario.EstimateSweepBytes(c) }

// TheoryBounds exposes the paper's closed-form complexity curves at one
// shape: the Ω(t + p·min{d,t}·log_{d+1}(d+t)) lower bound of Theorems
// 3.1/3.4, the DA(q) upper bound of Theorem 5.5 at ε, and the PA upper
// bound of Theorems 6.2/6.3 — the same values SweepConfig.Theory adds to
// sweep cells.
func TheoryBounds(p, t, d int, eps float64) (lower, daUpper, paUpper float64) {
	return bounds.LowerBound(p, t, d), bounds.DAUpperBound(p, t, d, eps), bounds.PAUpperBound(p, t, d)
}

// Experiment tables: the paper's evaluation (E1–E10) as formatted tables.
type (
	// ExperimentTable is one experiment's result table.
	ExperimentTable = harness.Table
	// ExperimentScale selects experiment sizes.
	ExperimentScale = harness.Scale
)

// Experiment scales.
const (
	// QuickScale keeps each experiment under ~1s.
	QuickScale = harness.Quick
	// FullScale uses the full experiment sizes (cmd/experiments -scale full).
	FullScale = harness.Full
)

// AllExperiments runs every experiment at the given scale, in index order.
func AllExperiments(sc ExperimentScale) ([]*ExperimentTable, error) {
	return harness.AllExperiments(sc)
}

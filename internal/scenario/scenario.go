// Package scenario is the declarative construction layer of the module:
// a JSON-serializable Scenario names an algorithm, an adversary
// expression, the problem shape (p, t, d, q), seeds, and a backend, and
// open registries resolve the names into machines and adversaries. The
// six paper algorithms and all implemented adversaries (with combinators)
// are pre-registered; user code extends the space with RegisterAlgorithm
// and RegisterAdversary instead of forking switch statements.
//
// The package is re-exported through the module root (doall.Scenario,
// doall.RunScenario, ...); internal callers (harness, sweeps) build on it
// directly.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"time"

	rt "doall/internal/runtime"
	"doall/internal/sim"
)

// Machine, Adversary, and Observer mirror the simulator's core types so
// registry builders and scenario callers share one vocabulary.
type (
	Machine   = sim.Machine
	Adversary = sim.Adversary
	Observer  = sim.Observer
)

// Backends a Scenario can run on.
const (
	// BackendSim is the deterministic multicast-native simulator (default).
	BackendSim = "sim"
	// BackendRuntime executes the same machines on real goroutines with
	// delayed channels and optional user task bodies.
	BackendRuntime = "runtime"
)

// Scenario declares one algorithm × adversary × (p, t, d) experiment. The
// zero value of every optional field means "default", so minimal literals
// and minimal JSON documents both work:
//
//	{"algorithm": "DA", "p": 16, "t": 1024, "d": 8}
//
// Scenarios are plain data: they marshal to JSON and back without loss,
// and running a round-tripped Scenario reproduces the original Result
// exactly (asserted by tests).
type Scenario struct {
	// Algorithm names a registered algorithm builder (RegisterAlgorithm).
	// Pre-registered: AllToAll, ObliDo, DA, PaRan1, PaRan2, PaDet.
	Algorithm string `json:"algorithm"`
	// Adversary is an adversary expression over registered names
	// (RegisterAdversary); see the expression grammar in this package's
	// documentation. Pre-registered: fair, random, crashing, restarting,
	// omitting, slow-set, stage-det, stage-online. Default "fair".
	Adversary string `json:"adversary,omitempty"`
	// P is the number of processors, T the number of tasks.
	P int `json:"p"`
	T int `json:"t"`
	// Q is the progress-tree arity (DA only; default 2).
	Q int `json:"q,omitempty"`
	// D is the message-delay bound (default 1).
	D int64 `json:"d,omitempty"`
	// Seed drives all randomness: schedule search, machine randomness,
	// and adversary randomness.
	Seed int64 `json:"seed,omitempty"`
	// Trials is how many runs RunAvg averages, with seeds Seed, Seed+1, …
	// (default 1).
	Trials int `json:"trials,omitempty"`
	// SearchRestarts bounds permutation-list search work (default 32).
	SearchRestarts int `json:"search_restarts,omitempty"`
	// MaxSteps overrides the simulator's step cap (0 = default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Backend selects the execution substrate: BackendSim (default) or
	// BackendRuntime.
	Backend string `json:"backend,omitempty"`
	// Shards is the intra-run parallelism of the simulator backend: each
	// time unit's live-processor schedule is split into Shards contiguous
	// ranges stepped on worker goroutines, with a serial deterministic
	// reduction keeping results byte-identical to the sequential engine
	// at every shard count. 0 and 1 mean sequential (today's engine,
	// bit-for-bit); ShardsAuto (-1) resolves from GOMAXPROCS and the run
	// width at execution time; other values are clamped to P. Non-sim
	// backends ignore it. Shards changes wall-clock time only, never the
	// Result — so it is deliberately excluded from sweep cell seeds.
	Shards int `json:"shards,omitempty"`
}

// ShardsAuto, assigned to Scenario.Shards (or passed on a -shards flag as
// the word "auto"), picks the shard count at run time from GOMAXPROCS and
// the processor count; see ResolveShards.
const ShardsAuto = -1

// ResolveShards translates a requested shard policy into the literal
// shard count handed to sim.Config for a run of width p. 0 and 1 select
// the sequential engine; negative values (ShardsAuto) pick
// min(GOMAXPROCS, p/2048) — capped so every shard keeps a few thousand
// processors of work per tick, below which fan-out overhead beats the
// parallel win — and anything above p is clamped to p.
func ResolveShards(requested, p int) int {
	if requested == 0 || requested == 1 {
		return 1
	}
	if requested < 0 {
		s := p / 2048
		if max := goruntime.GOMAXPROCS(0); s > max {
			s = max
		}
		if s < 1 {
			s = 1
		}
		return s
	}
	if requested > p {
		return p
	}
	return requested
}

// WithDefaults returns the scenario with every zero optional field
// replaced by its documented default.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Adversary == "" {
		sc.Adversary = "fair"
	}
	if sc.Q == 0 {
		sc.Q = 2
	}
	if sc.D == 0 {
		sc.D = 1
	}
	if sc.Trials == 0 {
		sc.Trials = 1
	}
	if sc.SearchRestarts == 0 {
		sc.SearchRestarts = 32
	}
	if sc.Backend == "" {
		sc.Backend = BackendSim
	}
	return sc
}

// Parse decodes a JSON scenario document. Unknown fields are rejected so
// typos fail loudly.
func Parse(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return sc, nil
}

// Machines builds the scenario's processor machines through the algorithm
// registry.
func (sc Scenario) Machines() ([]Machine, error) {
	sc = sc.WithDefaults()
	b, err := lookupAlgorithm(sc.Algorithm)
	if err != nil {
		return nil, err
	}
	return b(sc)
}

// BuildAdversary resolves the scenario's adversary expression through the
// adversary registry, building inner adversaries bottom-up.
func (sc Scenario) BuildAdversary() (Adversary, error) {
	sc = sc.WithDefaults()
	e, err := parseAdvExpr(sc.Adversary)
	if err != nil {
		return nil, err
	}
	return buildAdvExpr(sc, e)
}

func buildAdvExpr(sc Scenario, e *advExpr) (Adversary, error) {
	b, err := lookupAdversary(e.name)
	if err != nil {
		return nil, err
	}
	ctx := &AdversaryContext{Scenario: sc, Params: e.params}
	for _, in := range e.inners {
		adv, err := buildAdvExpr(sc, in)
		if err != nil {
			return nil, err
		}
		ctx.Inners = append(ctx.Inners, adv)
	}
	adv, err := b(ctx)
	if err != nil {
		return nil, fmt.Errorf("scenario: adversary %q: %w", e.String(), err)
	}
	return adv, nil
}

// Validate checks the scenario resolves: the algorithm name is registered,
// the adversary expression parses and builds, and the backend is known.
// It does not build machines (schedule search can be expensive).
func (sc Scenario) Validate() error {
	sc = sc.WithDefaults()
	if _, err := lookupAlgorithm(sc.Algorithm); err != nil {
		return err
	}
	if _, err := sc.BuildAdversary(); err != nil {
		return err
	}
	switch sc.Backend {
	case BackendSim, BackendRuntime:
	default:
		return fmt.Errorf("scenario: unknown backend %q (known: %s, %s)",
			sc.Backend, BackendSim, BackendRuntime)
	}
	if sc.Shards < ShardsAuto {
		return fmt.Errorf("scenario: shards=%d out of range (want ≥ -1; -1 = auto)", sc.Shards)
	}
	return nil
}

// Options carries the per-run knobs that are not part of the declarative
// spec: observers, and the runtime backend's real-time parameters and
// task bodies (none of which serialize).
type Options struct {
	// Observer receives engine hooks (simulator backends only; the
	// goroutine runtime has no global clock to observe).
	Observer Observer
	// Task is the runtime backend's task body, invoked for every
	// performed task id (tasks must be idempotent).
	Task func(id int)
	// Unit is the runtime backend's real-time length of one delay unit
	// (default 200µs).
	Unit time.Duration
	// Timeout aborts a runtime-backend run (default 30s).
	Timeout time.Duration
	// CrashAfter maps pid → local steps after which the runtime backend
	// crashes the processor.
	CrashAfter map[int]int
	// ReviveAfter maps pid → units of downtime after which a processor
	// crashed by CrashAfter restarts with fresh knowledge (the runtime
	// backend's crash-restart fault model).
	ReviveAfter map[int]int
}

// Result is the outcome of running a Scenario: exactly one of Sim or
// Runtime is non-nil, matching the backend.
type Result struct {
	// Backend is the backend that produced the result.
	Backend string
	// Sim holds the exact complexity measures of a simulator run.
	Sim *sim.Result
	// Runtime holds the goroutine runtime's execution summary.
	Runtime *rt.Report
}

// Solved reports whether the Do-All problem was solved.
func (r *Result) Solved() bool {
	switch {
	case r.Sim != nil:
		return r.Sim.Solved
	case r.Runtime != nil:
		return r.Runtime.Solved
	}
	return false
}

// Work returns the work measure: Definition 2.1 work for simulator runs,
// total local steps (an upper bound on it) for runtime runs.
func (r *Result) Work() int64 {
	switch {
	case r.Sim != nil:
		return r.Sim.Work
	case r.Runtime != nil:
		return r.Runtime.Steps
	}
	return 0
}

// Messages returns the point-to-point message count.
func (r *Result) Messages() int64 {
	switch {
	case r.Sim != nil:
		return r.Sim.Messages
	case r.Runtime != nil:
		return r.Runtime.Messages
	}
	return 0
}

// Run executes the scenario once on its backend with no options.
func Run(sc Scenario) (*Result, error) { return RunWith(sc, Options{}) }

// RunOn executes the scenario once on a caller-owned reusable simulation
// engine: machines and the adversary are rebuilt from the scenario's seed
// (construction must stay seed-deterministic), but the engine's wheel
// buckets, inboxes, result arrays, and multicast pool carry over from the
// previous run, so trial loops avoid rebuilding the simulation substrate
// per trial. Results are byte-identical to Run's — buffer reuse is
// invisible to the model (asserted by tests).
//
// The returned Result aliases engine-owned storage and is overwritten by
// the next RunOn with the same engine; copy what must outlive it. Only
// BackendSim scenarios are supported; other backends fall back to Run.
func RunOn(eng *sim.Engine, sc Scenario) (*Result, error) {
	sc = sc.WithDefaults()
	if sc.Backend != BackendSim || eng == nil {
		return Run(sc)
	}
	ms, err := sc.Machines()
	if err != nil {
		return nil, err
	}
	adv, err := sc.BuildAdversary()
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(sim.Config{
		P: sc.P, T: sc.T, MaxSteps: sc.MaxSteps,
		Shards: ResolveShards(sc.Shards, sc.P),
	}, ms, adv)
	if res == nil {
		return nil, err
	}
	return &Result{Backend: sc.Backend, Sim: res}, err
}

// RunWith executes the scenario once with the given options. On simulator
// backends a partial Result accompanies step-cap errors, mirroring
// sim.Run.
func RunWith(sc Scenario, opts Options) (*Result, error) {
	sc = sc.WithDefaults()
	switch sc.Backend {
	case BackendSim, BackendRuntime:
	default:
		// Reject before building machines: schedule search is expensive.
		return nil, fmt.Errorf("scenario: unknown backend %q (known: %s, %s)",
			sc.Backend, BackendSim, BackendRuntime)
	}
	ms, err := sc.Machines()
	if err != nil {
		return nil, err
	}
	switch sc.Backend {
	case BackendSim:
		adv, err := sc.BuildAdversary()
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Config{
			P: sc.P, T: sc.T, MaxSteps: sc.MaxSteps, Observer: opts.Observer,
			Shards: ResolveShards(sc.Shards, sc.P),
		}, ms, adv)
		if res == nil {
			return nil, err
		}
		return &Result{Backend: sc.Backend, Sim: res}, err
	case BackendRuntime:
		rep, err := rt.Run(rt.Config{
			P:           sc.P,
			T:           sc.T,
			D:           int(sc.D),
			Unit:        opts.Unit,
			Seed:        sc.Seed,
			Task:        opts.Task,
			Timeout:     opts.Timeout,
			CrashAfter:  opts.CrashAfter,
			ReviveAfter: opts.ReviveAfter,
		}, ms)
		if rep == nil {
			return nil, err
		}
		return &Result{Backend: sc.Backend, Runtime: rep}, err
	}
	panic("unreachable: backend validated above")
}

// Avg holds trial-averaged complexity measures.
type Avg struct {
	Work, Messages, Time float64
	Trials               int
}

// RunAvg runs the scenario sc.Trials times on a simulator backend with
// seeds Seed, Seed+1, … and averages work, messages, and completion time.
func RunAvg(sc Scenario) (Avg, error) {
	sc = sc.WithDefaults()
	if sc.Backend == BackendRuntime {
		return Avg{}, fmt.Errorf("scenario: RunAvg needs a simulator backend, got %q", sc.Backend)
	}
	var a Avg
	for i := 0; i < sc.Trials; i++ {
		run := sc
		run.Seed = sc.Seed + int64(i)
		res, err := Run(run)
		if err != nil {
			return Avg{}, fmt.Errorf("scenario: trial %d: %w", i, err)
		}
		a.Work += float64(res.Sim.Work)
		a.Messages += float64(res.Sim.Messages)
		a.Time += float64(res.Sim.SolvedAt)
	}
	a.Work /= float64(sc.Trials)
	a.Messages /= float64(sc.Trials)
	a.Time /= float64(sc.Trials)
	a.Trials = sc.Trials
	return a, nil
}

// Package doall is a Go implementation of the message-delay-sensitive
// Do-All algorithms of Kowalski and Shvartsman ("Performing work with
// asynchronous processors: message-delay-sensitive bounds", PODC 2003;
// full version in Information and Computation 203 (2005) 181–210).
//
// The Do-All problem: given t similar, idempotent tasks, perform them all
// using p asynchronous message-passing processors, tolerating arbitrary
// delays and any number of crashes short of all p. Work is charged for
// every local step of every live processor until all tasks are done and
// some processor knows it; a broadcast to m recipients costs m messages.
//
// The package exposes:
//
//   - A declarative Scenario API: a JSON-serializable spec naming an
//     algorithm, an adversary expression, the problem shape, and a
//     backend, resolved through open registries (RegisterAlgorithm,
//     RegisterAdversary). Adversary expressions compose combinators —
//     "crashing(slow-set(fair))" layers crash failures over a slow subset
//     over fixed delays.
//   - The algorithms as step machines: the oblivious baselines
//     (NewAllToAll, NewObliDo), the deterministic progress-tree family
//     DA(q) (NewDA), and the permutation family PA (NewPaRan1, NewPaRan2,
//     NewPaDet). All run unchanged under both execution substrates.
//   - A deterministic simulator (Simulate) in which an Adversary controls
//     processor speeds, crashes (fail-stop and restartable, with
//     rebase-on-revive rejoin), message omission, and message delays up
//     to an unknown bound d — the model in which the paper's bounds are
//     stated — with optional zero-cost-when-nil Observer hooks for
//     tracing and metrics.
//   - A goroutine runtime (Execute, or Backend "runtime") that runs the
//     same machines on real concurrency with user task bodies.
//   - The combinatorial toolkit of Section 4 (contention of permutation
//     schedules) and closed-form bound evaluators for comparing measured
//     work against theory.
//
// A minimal use:
//
//	sc := doall.Scenario{Algorithm: "DA", P: 8, T: 64, Q: 2, D: 4, Seed: 42}
//	res, _ := doall.RunScenario(sc)
//	fmt.Println(res.Sim.Work, res.Sim.Messages)
//
// Scenarios are plain data — the same run can come from a JSON document:
//
//	sc, _ := doall.ParseScenario([]byte(`{"algorithm": "PaRan1", "adversary": "crashing(crash=0@5)", "p": 8, "t": 256, "d": 4}`))
//	res, _ := doall.RunScenario(sc)
package doall

import (
	"math/rand"
	"time"

	"doall/internal/adversary"
	"doall/internal/bounds"
	"doall/internal/core"
	"doall/internal/perm"
	rt "doall/internal/runtime"
	"doall/internal/sim"
)

// Core model types, aliased from the simulator so user code and internal
// packages interoperate directly.
type (
	// Machine is one processor's algorithm state; Step is called once per
	// local step with the deliveries made since the previous step.
	Machine = sim.Machine
	// Message is a fully materialized point-to-point message (observer
	// hooks and the goroutine runtime; the simulator's hot path uses
	// Delivery references instead).
	Message = sim.Message
	// Delivery is one delivered message: a two-word reference into the
	// Multicast record shared by every recipient of a broadcast.
	Delivery = sim.Delivery
	// Multicast is one broadcast stored once regardless of recipient
	// count; a broadcast's recipients are every processor but the sender.
	Multicast = sim.Multicast
	// StepResult reports what one local step performed (StepResult.Perform
	// / PerformedTask), broadcast, and whether the processor voluntarily
	// halted.
	StepResult = sim.StepResult
	// SimEngine is the reusable simulation engine: one engine per trial
	// loop reuses wheel buckets, inboxes, result arrays, and the multicast
	// pool across runs (NewSimEngine).
	SimEngine = sim.Engine
	// Adversary controls asynchrony in the simulator: per-unit scheduling,
	// crashes, and one Delays answer per broadcast — a uniform delay up to
	// its bound D(), or a per-recipient fill that may mark copies Omitted.
	Adversary = sim.Adversary
	// MachineResetter is the optional Machine extension restoring a
	// machine to its initial state without reallocating (trial reuse).
	MachineResetter = sim.Resetter
	// MachineRejoiner is the optional Machine extension for the
	// crash-restart fault model: Rejoin restores fresh initial knowledge
	// mid-run without invalidating in-flight payloads (the next broadcast
	// travels as a full rebase). All six paper algorithms implement it.
	MachineRejoiner = sim.Rejoiner
	// PayloadRecycler is the optional Machine extension receiving payload
	// buffers back once every recipient has consumed them.
	PayloadRecycler = sim.PayloadRecycler
	// Decision is an adversary's per-unit scheduling choice, including the
	// optional NextWake idle-fast-forward promise.
	Decision = sim.Decision
	// View is the adversary's omniscient per-unit picture of the system.
	View = sim.View
	// Payload is the optional interface of payloads that contribute a
	// byte size to Result.Bytes; payload values are shared, uncopied, by
	// every recipient of a multicast and must be immutable once sent.
	Payload = sim.Payload
	// Result carries the measured complexities of a simulated execution.
	Result = sim.Result
	// SimConfig configures Simulate.
	SimConfig = sim.Config
	// Perm is a permutation of {0,…,n-1} used as a task schedule.
	Perm = perm.Perm
	// Schedules is an ordered list of permutations (the paper's Σ).
	Schedules = perm.List
	// DAConfig parameterizes the DA(q) family.
	DAConfig = core.DAConfig
	// RunConfig configures the goroutine runtime.
	RunConfig = rt.Config
	// RunReport is the goroutine runtime's execution summary.
	RunReport = rt.Report
)

// NoTask is StepResult.PerformedTask's value for a step that performed no
// task.
const NoTask = sim.NoTask

// Omitted marks a dropped copy in an Adversary.Delays fill: the copy is
// charged to the sender's message complexity but never delivered.
const Omitted = sim.Omitted

// Simulate runs machines under the adversary in the deterministic
// simulator and returns exact work/message/time measurements
// (Definitions 2.1–2.2 of the paper). It uses the multicast-native
// engine: one broadcast is one stored Multicast plus one timing-wheel
// event, so large (p, t, d) sweeps run orders of magnitude faster than
// under the per-message legacy engine while producing identical Results.
func Simulate(cfg SimConfig, machines []Machine, adv Adversary) (*Result, error) {
	return sim.Run(cfg, machines, adv)
}

// NewSimEngine returns a reusable simulation engine. One engine held
// across a trial loop reuses its wheel buckets, inboxes, result arrays,
// and multicast pool run to run — in steady state a run allocates
// nothing — while producing Results byte-identical to Simulate's. The
// Result returned by SimEngine.Run is engine-owned and overwritten by the
// next run.
func NewSimEngine() *SimEngine { return sim.NewEngine() }

// Execute runs machines on real goroutines with delayed channels; cfg.Task
// is invoked for every performed task id.
func Execute(cfg RunConfig, machines []Machine) (*RunReport, error) {
	return rt.Run(cfg, machines)
}

// NewAllToAll builds the oblivious baseline: every processor performs
// every task; work Θ(p·t), zero messages.
func NewAllToAll(p, t int) []Machine { return core.NewAllToAll(p, t) }

// NewObliDo builds the Fig. 2 oblivious scheduler over the schedule list.
func NewObliDo(p, t int, schedules Schedules) []Machine { return core.NewObliDo(p, t, schedules) }

// NewDA builds the deterministic progress-tree algorithm DA(q); work
// O(t·p^ε + p·min{t,d}·⌈t/d⌉^ε) for suitable q and schedules.
func NewDA(cfg DAConfig) ([]Machine, error) { return core.NewDA(cfg) }

// NewPaRan1 builds the randomized permutation algorithm that draws one
// random schedule per processor at start-up; expected work
// O(t·log p + p·d·log(2+t/d)).
func NewPaRan1(p, t int, seed int64) []Machine { return core.NewPaRan1(p, t, seed) }

// NewPaRan2 builds the randomized permutation algorithm that draws each
// next task uniformly among those not known done; same expected work as
// PaRan1 with far fewer random bits.
func NewPaRan2(p, t int, seed int64) []Machine { return core.NewPaRan2(p, t, seed) }

// NewPaDet builds the deterministic permutation algorithm over a fixed
// schedule list with low d-contention (Corollary 4.5).
func NewPaDet(p, t int, schedules Schedules) ([]Machine, error) {
	return core.NewPaDet(p, t, schedules)
}

// NewFairAdversary returns the benign d-adversary: full processor speed,
// every message delayed exactly d.
func NewFairAdversary(d int64) Adversary { return adversary.NewFair(d) }

// NewCrashingAdversary wraps another adversary with scheduled crash
// failures; it never crashes the last live processor.
func NewCrashingAdversary(inner Adversary, events []CrashEvent) Adversary {
	ev := make([]adversary.CrashEvent, len(events))
	for i, e := range events {
		ev[i] = adversary.CrashEvent{Pid: e.Pid, At: e.At}
	}
	return adversary.NewCrashing(inner, ev)
}

// CrashEvent schedules processor Pid to crash at simulated time At.
type CrashEvent struct {
	Pid int
	At  int64
}

// RestartEvent schedules a restartable-crash fault: processor Pid
// crashes at CrashAt and revives at ReviveAt with fresh initial
// knowledge (deliveries missed while down are lost, and the revived
// processor's next broadcast travels as a full snapshot rebase).
type RestartEvent = adversary.RestartEvent

// OmitWindow schedules message-omission faults: every multicast sent by
// processor Pid at a time in [From, Until) loses its copies (they are
// charged as sent but never delivered).
type OmitWindow = adversary.OmitWindow

// NewRestartingAdversary wraps another adversary with scheduled
// crash-restart faults (the "restarting(...)" expression combinator); it
// never crashes the last live processor.
func NewRestartingAdversary(inner Adversary, events []RestartEvent) Adversary {
	return adversary.NewRestarting(inner, events)
}

// NewOmittingAdversary wraps another adversary with scheduled
// message-omission faults (the "omitting(...)" expression combinator).
// A non-empty to list restricts the dropped copies to the listed
// recipients, modeling deliver-to-subset omission.
func NewOmittingAdversary(inner Adversary, windows []OmitWindow, to []int) Adversary {
	return adversary.NewOmitting(inner, windows, to)
}

// NewLowerBoundAdversaryDet returns the Theorem 3.1 off-line adversary
// that forces Ω(t + p·min{d,t}·log_{d+1}(d+t)) work out of deterministic
// algorithms (machines must support cloning).
func NewLowerBoundAdversaryDet(d int64, t int) Adversary {
	return adversary.NewStageDeterministic(d, t)
}

// NewLowerBoundAdversaryRand returns the Theorem 3.4 adaptive adversary
// that forces the same expected work out of randomized algorithms.
func NewLowerBoundAdversaryRand(d int64, t int) Adversary {
	return adversary.NewStageOnline(d, t)
}

// FindSchedules searches for a list of k low-contention permutations of
// {0,…,n-1} (Lemma 4.1) usable with NewDA (k = n = q) and NewObliDo.
func FindSchedules(n, restarts int, seed int64) Schedules {
	r := rand.New(rand.NewSource(seed))
	return perm.FindLowContentionList(n, n, restarts, r).List
}

// FindDelaySchedules searches for a list of k permutations of {0,…,n-1}
// with low d-contention (Corollary 4.5) usable with NewPaDet; n should be
// the number of jobs, min(p, t).
func FindDelaySchedules(k, n, d, restarts int, seed int64) Schedules {
	r := rand.New(rand.NewSource(seed))
	return perm.FindLowDContentionList(k, n, d, restarts, r).List
}

// ScheduleSearchResult describes a schedule list found by one of the
// search functions together with its (estimated or exact) contention and
// how many candidates were examined.
type ScheduleSearchResult = perm.SearchResult

// SearchSchedules searches for a list of k low-contention permutations of
// {0,…,n-1} (Lemma 4.1), reporting the contention found; FindSchedules is
// the list-only convenience form.
func SearchSchedules(k, n, restarts int, seed int64) ScheduleSearchResult {
	r := rand.New(rand.NewSource(seed))
	return perm.FindLowContentionList(k, n, restarts, r)
}

// RandomSchedules returns k uniformly random permutations of {0,…,n-1}.
func RandomSchedules(k, n int, seed int64) Schedules {
	r := rand.New(rand.NewSource(seed))
	return perm.RandomList(k, n, r)
}

// Contention returns the exact contention Cont(Σ) of a schedule list
// (exponential in the permutation length; intended for small n).
func Contention(s Schedules) int { return perm.Cont(s) }

// DContentionEstimate lower-estimates the d-contention of a schedule list
// by probing `samples` random completion orders.
func DContentionEstimate(s Schedules, d, samples int, seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return perm.DContEstimate(s, d, samples, r)
}

// HarmonicBound returns ⌈3·n·H_n⌉, the Lemma 4.1 contention bound.
func HarmonicBound(n int) int { return perm.HarmonicBound(n) }

// DContentionBound returns the Theorem 4.4/Corollary 4.5 bound
// n·ln n + 8·p·d·ln(e + n/d) on the d-contention of p schedules over [n].
func DContentionBound(n, p, d int) float64 { return perm.DContBound(n, p, d) }

// DContention returns the exact d-contention (d)-Cont(Σ) of a schedule
// list (exponential in the permutation length).
func DContention(s Schedules, d int) int { return perm.DCont(s, d) }

// LowerBound evaluates the Ω(t + p·min{d,t}·log_{d+1}(d+t)) delay-
// sensitive lower bound of Theorems 3.1/3.4 (constants suppressed).
func LowerBound(p, t, d int) float64 { return bounds.LowerBound(p, t, d) }

// DAUpperBound evaluates the O(t·p^ε + p·min{t,d}·⌈t/d⌉^ε) work bound of
// Theorem 5.5 (constants suppressed).
func DAUpperBound(p, t, d int, eps float64) float64 { return bounds.DAUpperBound(p, t, d, eps) }

// PAUpperBound evaluates the O(t·log p + p·min{t,d}·log(2+t/d)) work
// bound of Theorems 6.2/6.3 (constants suppressed).
func PAUpperBound(p, t, d int) float64 { return bounds.PAUpperBound(p, t, d) }

// ObliviousWork returns p·t, the work of the communication-free oblivious
// algorithm (Proposition 2.2's ceiling).
func ObliviousWork(p, t int) float64 { return bounds.ObliviousWork(p, t) }

// DefaultRunConfig returns a RunConfig with sensible pacing for the
// goroutine runtime.
func DefaultRunConfig(p, t, d int) RunConfig {
	return RunConfig{P: p, T: t, D: d, Unit: 200 * time.Microsecond, Timeout: 30 * time.Second}
}

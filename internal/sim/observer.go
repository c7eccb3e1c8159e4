package sim

import "time"

// TickPhaseProfile is the accumulated wall-clock breakdown of the
// parallel tick engine's three phases (see parallel.go): A1 is the
// serial prefix (schedule filtering, the cache-build plan and its
// fan-out, shadow seeding), A2 the parallel shard stepping, and B the
// serial tail (staged-reduction merge plus the order-dependent residue).
// Ticks counts the parallel ticks profiled;
// sequential-fallback ticks contribute nothing. The profile is monotone
// over an Engine's lifetime — it is NOT reset by Run — so consumers
// (the service's workers, the phase sub-benchmarks) take deltas between
// two PhaseProfile calls.
type TickPhaseProfile struct {
	A1    time.Duration
	A2    time.Duration
	B     time.Duration
	Ticks int64
}

// PhaseProfile returns the engine's accumulated parallel-tick phase
// timings. Call it between Runs (an Engine is not safe for concurrent
// use, and the counters are updated on the tick path).
func (e *Engine) PhaseProfile() TickPhaseProfile {
	return TickPhaseProfile{
		A1:    time.Duration(e.phaseNs[0]),
		A2:    time.Duration(e.phaseNs[1]),
		B:     time.Duration(e.phaseNs[2]),
		Ticks: e.parTicks,
	}
}

// Observer is the optional hook set threaded through the multicast engine
// (Run). Set Config.Observer to receive a callback at every observable
// event of an execution — traces and per-event debugging hang off these
// hooks instead of forking the engine. A nil observer costs nothing: the
// engine guards every hook with a single nil check, so the hot path is
// unchanged (guarded by the BenchmarkEngineMulticast* benchmarks against
// the BENCH_0.json baselines).
//
// Attaching an observer never changes the engine's code path: an
// observed run takes the same delivery, stepping and accounting path as
// an unobserved one and only adds the hook calls, so its Result is
// identical. Observers are for traces, not for counting: the whole-run
// totals of every hook are in Result already — OnStep sums to
// TotalSteps, OnMulticast to Multicasts (its recipients to
// TotalMessages), OnCrash/OnRevive/OnOmit to Crashes/Revivals/Omissions,
// and OnSolved fires iff Solved — so production paths (the sweep runner
// and the service's worker fleet) attach none.
//
// Hooks run synchronously inside the engine loop, in the same order at
// every shard count (Config.Shards): a time unit's deliveries message by
// message in scheduling order, each to its live recipients in ascending
// order; per step OnStep, then an OnOmit for each dropped copy, then
// OnMulticast. Implementations must not mutate
// anything they are handed and must not retain pointer arguments beyond
// the call; the engine reuses the underlying storage. The legacy
// reference engine (RunLegacy) ignores observers — it exists only for
// equivalence checking.
type Observer interface {
	// OnStep fires after machine pid executed one local step at time now.
	// r is the step's raw result, valid only for the duration of the call.
	OnStep(pid int, now int64, r *StepResult)
	// OnMulticast fires once per broadcast (recipients = p-1, omitted
	// copies included), after the kept copies were scheduled for delivery.
	OnMulticast(from int, now int64, payload any, recipients int)
	// OnDeliver fires when a message is delivered to a live recipient,
	// at the start of its delivery time unit. Messages addressed to
	// crashed or halted processors are dropped without a callback,
	// matching the accounting of the model.
	OnDeliver(m Message)
	// OnCrash fires when the adversary crashes processor pid at time now.
	OnCrash(pid int, now int64)
	// OnRevive fires when the adversary revives crashed processor pid at
	// time now (the restartable-crash model); the machine has already
	// rejoined with fresh knowledge when the hook runs.
	OnRevive(pid int, now int64)
	// OnOmit fires when the network omits (drops) the copy of a multicast
	// from `from` sent at `sentAt` that was addressed to `to`. The send
	// itself is still reported through OnMulticast with its full recipient
	// count.
	OnOmit(from, to int, sentAt int64)
	// OnSolved fires once, at the time unit σ the problem became solved
	// (all tasks done and some live processor informed). res is the
	// engine's live Result; treat it as read-only and do not retain it.
	OnSolved(now int64, res *Result)
}

// NopObserver implements Observer with no-ops. Embed it to implement only
// the hooks you care about.
type NopObserver struct{}

// OnStep implements Observer.
func (NopObserver) OnStep(int, int64, *StepResult) {}

// OnMulticast implements Observer.
func (NopObserver) OnMulticast(int, int64, any, int) {}

// OnDeliver implements Observer.
func (NopObserver) OnDeliver(Message) {}

// OnCrash implements Observer.
func (NopObserver) OnCrash(int, int64) {}

// OnRevive implements Observer.
func (NopObserver) OnRevive(int, int64) {}

// OnOmit implements Observer.
func (NopObserver) OnOmit(int, int, int64) {}

// OnSolved implements Observer.
func (NopObserver) OnSolved(int64, *Result) {}

// FuncObserver adapts a set of optional functions to the Observer
// interface; nil fields are skipped. It is the quickest way to hook one or
// two events without declaring a type.
type FuncObserver struct {
	Step      func(pid int, now int64, r *StepResult)
	Multicast func(from int, now int64, payload any, recipients int)
	Deliver   func(m Message)
	Crash     func(pid int, now int64)
	Revive    func(pid int, now int64)
	Omit      func(from, to int, sentAt int64)
	Solved    func(now int64, res *Result)
}

var _ Observer = (*FuncObserver)(nil)

// OnStep implements Observer.
func (o *FuncObserver) OnStep(pid int, now int64, r *StepResult) {
	if o.Step != nil {
		o.Step(pid, now, r)
	}
}

// OnMulticast implements Observer.
func (o *FuncObserver) OnMulticast(from int, now int64, payload any, recipients int) {
	if o.Multicast != nil {
		o.Multicast(from, now, payload, recipients)
	}
}

// OnDeliver implements Observer.
func (o *FuncObserver) OnDeliver(m Message) {
	if o.Deliver != nil {
		o.Deliver(m)
	}
}

// OnCrash implements Observer.
func (o *FuncObserver) OnCrash(pid int, now int64) {
	if o.Crash != nil {
		o.Crash(pid, now)
	}
}

// OnRevive implements Observer.
func (o *FuncObserver) OnRevive(pid int, now int64) {
	if o.Revive != nil {
		o.Revive(pid, now)
	}
}

// OnOmit implements Observer.
func (o *FuncObserver) OnOmit(from, to int, sentAt int64) {
	if o.Omit != nil {
		o.Omit(from, to, sentAt)
	}
}

// OnSolved implements Observer.
func (o *FuncObserver) OnSolved(now int64, res *Result) {
	if o.Solved != nil {
		o.Solved(now, res)
	}
}

// MultiObserver fans every event out to each observer in order. Nil
// entries are skipped.
type MultiObserver []Observer

var _ Observer = (MultiObserver)(nil)

// OnStep implements Observer.
func (m MultiObserver) OnStep(pid int, now int64, r *StepResult) {
	for _, o := range m {
		if o != nil {
			o.OnStep(pid, now, r)
		}
	}
}

// OnMulticast implements Observer.
func (m MultiObserver) OnMulticast(from int, now int64, payload any, recipients int) {
	for _, o := range m {
		if o != nil {
			o.OnMulticast(from, now, payload, recipients)
		}
	}
}

// OnDeliver implements Observer.
func (m MultiObserver) OnDeliver(msg Message) {
	for _, o := range m {
		if o != nil {
			o.OnDeliver(msg)
		}
	}
}

// OnCrash implements Observer.
func (m MultiObserver) OnCrash(pid int, now int64) {
	for _, o := range m {
		if o != nil {
			o.OnCrash(pid, now)
		}
	}
}

// OnRevive implements Observer.
func (m MultiObserver) OnRevive(pid int, now int64) {
	for _, o := range m {
		if o != nil {
			o.OnRevive(pid, now)
		}
	}
}

// OnOmit implements Observer.
func (m MultiObserver) OnOmit(from, to int, sentAt int64) {
	for _, o := range m {
		if o != nil {
			o.OnOmit(from, to, sentAt)
		}
	}
}

// OnSolved implements Observer.
func (m MultiObserver) OnSolved(now int64, res *Result) {
	for _, o := range m {
		if o != nil {
			o.OnSolved(now, res)
		}
	}
}

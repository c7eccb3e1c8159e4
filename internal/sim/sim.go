// Package sim is a deterministic discrete-time simulator of the
// asynchronous message-passing model of Kowalski & Shvartsman (Section 2).
//
// Time advances in global units (the smallest gap between any two clock
// ticks of any processor; unknown to the processors themselves). At every
// unit an Adversary decides which processors take a local step and may
// crash processors; it also assigns each message a delivery delay of at
// most d units. Work and message complexity are accounted exactly as in
// Definitions 2.1 and 2.2: every local step of a live, non-halted processor
// costs one work unit until the problem is solved (all tasks performed and
// at least one processor informed), and a broadcast to m recipients costs m
// point-to-point messages.
//
// # Allocation discipline
//
// The per-step contracts are designed so the engine allocates nothing in
// steady state: a step reports at most one performed task as a plain int
// (StepResult), the adversary writes its schedule into an engine-owned
// Decision whose slices are reused across ticks, and a broadcast is one
// pooled Multicast record shared by every recipient — inboxes hold
// lightweight Delivery references into it, never per-recipient copies.
// Machines that implement PayloadRecycler get their payload buffers back
// once every recipient has consumed them, closing the last allocation
// loop. The allocation gates in the repo root assert zero steady-state
// allocations per simulated step and per multicast.
package sim

import "errors"

// Message is a fully materialized point-to-point message. The hot path
// never builds one — inboxes hold Delivery references into shared
// Multicast records — but observers (Observer.OnDeliver), the legacy
// reference engine's delay queue, and the goroutine runtime's channels
// still speak in whole messages.
type Message struct {
	// From and To are processor ids.
	From, To int
	// SentAt is the global time at which the send step occurred.
	SentAt int64
	// DeliverAt is the global time at which the message enters the
	// recipient's inbox. Invariant: SentAt < DeliverAt ≤ SentAt + d.
	DeliverAt int64
	// Payload is the algorithm-specific content. Payloads must be treated
	// as immutable by receivers (they are shared between the recipients of
	// one multicast).
	Payload any
}

// Multicast is one broadcast stored once, regardless of recipient count.
// A broadcast's recipients are every processor but the sender; they
// receive Delivery references into the record, so a broadcast costs
// O(1) stored state instead of p-1 message copies. The engine pools Multicast
// records: once every recipient has consumed (or missed) its delivery the
// record is recycled, so steady-state broadcasts allocate nothing.
type Multicast struct {
	// From is the sender's processor id.
	From int
	// SentAt is the global time of the send step.
	SentAt int64
	// Payload is the shared, immutable content.
	Payload any
	// outstanding counts deliveries not yet consumed or dropped; when it
	// reaches zero the engine recycles the record (and hands the payload
	// back to the sender if it implements PayloadRecycler). Only the
	// multicast engine maintains it.
	outstanding int32
}

// Delivery is one delivered message in a processor's inbox: a reference
// into the multicast record shared by all recipients, plus the delivery
// time. Copying a Delivery copies two words, not the five fields of a
// Message, which is what keeps the delivery fan-out of a broadcast cheap.
type Delivery struct {
	// MC is the shared multicast record. Receivers must treat it (and the
	// payload inside) as immutable.
	MC *Multicast
	// At is the global time the message entered the inbox.
	At int64
}

// From returns the sender's processor id.
func (d Delivery) From() int { return d.MC.From }

// SentAt returns the global time of the send step.
func (d Delivery) SentAt() int64 { return d.MC.SentAt }

// DeliverAt returns the global time the message entered the inbox.
func (d Delivery) DeliverAt() int64 { return d.At }

// Payload returns the shared, immutable payload.
func (d Delivery) Payload() any { return d.MC.Payload }

// NoTask is returned by StepResult.PerformedTask when the step performed
// no task.
const NoTask = -1

// StepResult is what a processor's single local step produced. Its zero
// value means "no task performed, nothing sent, keep running"; report a
// performed task with Perform. In the paper's unit-cost model a step
// performs at most one task, which the representation enforces by
// construction (there is no room for a second task — the old slice-typed
// field required a per-step allocation and a runtime check instead).
type StepResult struct {
	// performed holds 1 + the id of the task performed this step, zero
	// when none. It is encapsulated so the zero value safely means "no
	// task"; use Perform and PerformedTask.
	performed int
	// Broadcast, when non-nil, is a payload multicast to every other
	// processor (p-1 point-to-point messages).
	Broadcast any
	// Halt indicates the processor voluntarily halts after this step. Per
	// Proposition 2.1 correct algorithms halt only when they know all
	// tasks are done; the simulator records but does not forbid early
	// halts (the lower-bound experiments rely on observing them).
	Halt bool
}

// Perform records task z as performed by this step (at most one per step).
func (r *StepResult) Perform(z int) { r.performed = z + 1 }

// PerformedTask returns the id of the task performed this step, or NoTask
// (-1) when the step performed none.
func (r *StepResult) PerformedTask() int { return r.performed - 1 }

// PerformStep returns a StepResult performing task z — the common
// "perform one task, nothing else" step as a single expression.
func PerformStep(z int) StepResult { return StepResult{performed: z + 1} }

// Payload is the optional interface for wire-size-aware message payloads.
// Payloads implementing it contribute their encoded size to Result.Bytes;
// the engine queries the size once per multicast, never per recipient.
// Implementations must be immutable once sent: one payload value is shared,
// uncopied, by every recipient of a multicast (and by the sender).
type Payload interface {
	// WireSize returns the encoded size of the payload in bytes.
	WireSize() int
}

// Machine is the step-machine interface every Do-All algorithm implements.
// One Machine instance is one processor's local state.
type Machine interface {
	// Step executes one local step: process all messages in inbox (in one
	// unit of work, per the model), optionally perform a task, optionally
	// broadcast. It is called only for live, non-halted processors.
	//
	// The inbox slice is owned by the engine and reused after Step
	// returns: machines must consume the deliveries during the call and
	// must not retain the slice, the Delivery values, or the Multicast
	// records they reference (the engine recycles the records once all
	// recipients have consumed them). Copy any payload data that needs to
	// outlive the step.
	Step(now int64, inbox []Delivery) StepResult
	// KnowsAllDone reports whether this processor's local knowledge
	// implies every task has been performed.
	KnowsAllDone() bool
}

// TaskIntender is an optional Machine extension exposing which task the
// machine would perform on its next step, or -1 when it would not perform
// any. Adaptive adversaries (Theorem 3.4's construction) use it to delay
// processors that are about to perform protected tasks.
type TaskIntender interface {
	NextTask() int
}

// Cloner is an optional Machine extension for deterministic machines whose
// state can be deep-copied. The off-line adversary of Theorem 3.1 clones
// machines to look ahead one stage.
type Cloner interface {
	CloneMachine() Machine
}

// Resetter is an optional Machine extension restoring a machine to its
// initial, pre-execution state without reallocating, so trial loops and
// the allocation gates can reuse one machine set. A reset machine replays
// the exact same execution; machines drawing from a random stream (PaRan2)
// re-seed it.
type Resetter interface {
	Reset()
}

// Rejoiner is an optional Machine extension for the crash-restart fault
// model: Rejoin restores the machine to fresh initial knowledge when the
// adversary revives it after a crash (Decision.Revive). Rejoin differs
// from Resetter.Reset in one crucial way — it is called mid-run, while
// snapshots the machine broadcast before crashing may still be in flight,
// so implementations must not invalidate or recycle previously published
// payload buffers. Knowledge-bearing machines rejoin by rebasing: the
// next broadcast travels as a full (non-delta) snapshot and receivers'
// stale per-sender cursors fall back to full merges, which is safe by
// monotonicity. Machines without Rejoin are revived via Resetter when
// they implement it, and with their pre-crash state otherwise (see
// RejoinMachine).
type Rejoiner interface {
	Rejoin()
}

// RejoinMachine restores a machine for crash-restart re-entry: Rejoin
// when supported, falling back to Reset (safe for machines that never
// publish pooled payloads), reporting whether either ran. Both engines
// and the goroutine runtime use it, so revival semantics are identical
// across substrates.
func RejoinMachine(m Machine) bool {
	if rj, ok := m.(Rejoiner); ok {
		rj.Rejoin()
		return true
	}
	if rs, ok := m.(Resetter); ok {
		rs.Reset()
		return true
	}
	return false
}

// PayloadRecycler is an optional Machine extension closing the payload
// allocation loop: when every recipient of a multicast has consumed (or,
// being crashed or halted, missed) its delivery, the engine hands the
// payload back to the sending machine, which may reuse the buffer for a
// later broadcast. Machines that pool payload buffers this way broadcast
// allocation-free in steady state. The engine guarantees no live
// reference to the payload remains when RecyclePayload is called; the
// legacy reference engine and the goroutine runtime never recycle.
type PayloadRecycler interface {
	RecyclePayload(payload any)
}

// PayloadSizer is an optional Machine extension for allocation-free byte
// accounting: it returns the wire size of one of this machine's own
// payload values (0 for values it does not recognize). The engine
// prefers a sender's PayloadSizer over asserting payload.(Payload)
// because implementations check concrete payload types — a direct
// type-descriptor compare — whereas the interface assertion goes through
// the runtime's lazily, randomly populated per-site itab cache, whose
// population is itself a rare steady-state heap allocation.
type PayloadSizer interface {
	PayloadWireSize(payload any) int
}

// View is the adversary's omniscient picture of the system at the start of
// a time unit.
type View struct {
	// Now is the current global time.
	Now int64
	// P is the number of processors; T the number of tasks.
	P, T int
	// Tasks is the chunked global done-task ledger: which tasks anyone has
	// performed, how many remain, with skip-scanning over done regions.
	// Read-only for adversaries.
	Tasks *TaskLedger
	// Machines exposes processor state for intent probing and cloning.
	// Adversaries must not call Step on these.
	Machines []Machine
	// Crashed[i] and Halted[i] report processor i's status.
	Crashed, Halted []bool
	// InFlight is the number of undelivered messages.
	InFlight int
	// pending answers Inbox for the engine that built the view.
	pending inboxSource
}

// inboxSource is the engine behind View.Inbox.
type inboxSource interface {
	pendingInbox(i int) []Delivery
}

// Undone returns the number of tasks not yet performed by anyone
// (shorthand for Tasks.Undone()).
func (v *View) Undone() int { return v.Tasks.Undone() }

// Inbox returns the deliveries made to processor i but not yet consumed
// by a step, in the order i's next step will see them; empty for crashed
// and halted processors. The slice is engine scratch, valid until the next
// Inbox call or the end of the Schedule call: copy it to keep it.
// Adversaries must treat the deliveries as read-only. Theorem 3.1's
// off-line adversary uses it to run machine clones a stage ahead.
func (v *View) Inbox(i int) []Delivery { return v.pending.pendingInbox(i) }

// Batch is one shared delivery group of the multicast engine's grouped
// path: every uniform multicast delivered at one time unit, stored once
// and consumed by reference by every live processor. Recipients skip
// multicasts they sent themselves.
//
// Combined is the batch's shared knowledge cache: the first consuming
// machine that understands the payloads may fold the batch's whole new
// knowledge into one accumulated structure and publish it here (setting
// Builder to its pid), so every later consumer pays one merge instead of
// one per sender. The engine returns Combined to the builder machine via
// its PayloadRecycler hook when the batch is retired. Machines that use
// the cache must treat published Combined values as immutable.
type Batch struct {
	// At is the delivery time shared by every multicast in the batch.
	At int64
	// MCs are the delivered multicasts in delivery order.
	MCs []*Multicast
	// Combined is the machine-built shared knowledge cache (nil until a
	// consumer builds it); Builder is the pid whose machine owns its
	// buffers, -1 while unset.
	Combined any
	Builder  int32
	// remaining counts live processors that have not yet consumed the
	// batch; the engine retires the batch when it reaches zero.
	remaining int32
}

// BatchConsumer is an optional Machine extension for grouped delivery:
// StepBatched is Step with the pending deliveries presented as shared
// delivery groups (batches, oldest first) plus any per-recipient
// deliveries (tail). It must be semantically identical to calling Step
// with the same deliveries materialized in time order; implementations
// must therefore be merge-order-insensitive (the algorithms' monotone
// knowledge unions are). Machines that do not implement the interface
// still run under grouped delivery — their batches are materialized into
// an ordinary inbox slice.
//
// BuildCombined builds and publishes b's combined knowledge cache
// (Batch.Combined / Batch.Builder) from this machine's receive-cursor
// state — exactly the cache its own StepBatched would build on first
// consuming b — without consuming the batch. The machine's knowledge must
// not change; its per-sender merge cursors advance exactly as the in-step
// build would. The split is what lets the parallel tick engine construct
// caches concurrently (phase A1): the builds read only the builder's
// private cursors plus the batch's immutable payloads, so distinct
// builders can construct their (disjoint) batch ranges at once, and the
// builder's own later StepBatched finds the published caches and applies
// them — monotone unions land it on the same state the combined
// build-and-apply would have. BuildCombined must return false —
// publishing nothing and mutating nothing (aborted accumulation scratch
// excepted, exactly as an in-step aborted build) — when the batch's
// payloads are not combinable by this machine; the engine then leaves the
// batch cache-less, which every consumer handles by its eager fallback.
type BatchConsumer interface {
	Machine
	StepBatched(now int64, batches []*Batch, tail []Delivery) StepResult
	BuildCombined(b *Batch) bool
}

// Decision is the adversary's scheduling choice for one time unit. The
// engine owns one Decision and passes it to Adversary.Schedule every
// unit with Active and Crash emptied (capacity retained) and NextWake
// zeroed; adversaries append into the slices instead of allocating fresh
// ones, so scheduling is allocation-free in steady state.
type Decision struct {
	// Active lists processors that take a local step this unit. Crashed
	// and halted processors in the list are ignored.
	Active []int
	// Crash lists processors that crash at the start of this unit.
	Crash []int
	// Revive lists crashed processors that restart at the start of this
	// unit (the restartable-crash fault model). A revived processor
	// re-enters the live set with fresh initial knowledge (RejoinMachine);
	// deliveries it missed while down are lost. Entries naming live,
	// halted, or out-of-range processors are ignored. Crashes are applied
	// before revives within one unit.
	Revive []int
	// NextWake, when positive and Active is empty (or contains only
	// crashed/halted processors), promises that the adversary will not
	// activate any processor strictly before time NextWake. The engine
	// uses the promise to fast-forward idle stretches: global time jumps
	// to min(NextWake, next message delivery) instead of ticking through
	// units in which nothing can happen. Zero means no promise (the
	// engine ticks unit by unit, exactly like the legacy engine).
	//
	// The promise covers every Schedule side effect, not just
	// activations: the skipped units' Schedule calls never happen, so an
	// adversary whose Schedule does anything time-dependent before
	// NextWake — injecting a crash at an exact time, in particular —
	// must clamp NextWake to that time (see adversary.Crashing).
	NextWake int64
}

// reset empties the decision for the next Schedule call, retaining slice
// capacity.
func (d *Decision) reset() {
	d.Active = d.Active[:0]
	d.Crash = d.Crash[:0]
	d.Revive = d.Revive[:0]
	d.NextWake = 0
}

// Omitted marks a copy of a broadcast the network drops (see
// Adversary.Delays). It is not 0, so an adversary that forgets to fill a
// slot still trips the engines' delay validation.
const Omitted int64 = -1

// Adversary controls asynchrony: per-unit scheduling, crashes, and message
// delays. Implementations must respect the d-adversary contract: every
// delay lies in [1, D()].
type Adversary interface {
	// D returns the message-delay bound d ≥ 1 this adversary honors.
	D() int64
	// Schedule is called once per global time unit. It writes this unit's
	// decision into dec, which arrives emptied (see Decision): append the
	// active and crashing processors to dec.Active and dec.Crash and set
	// dec.NextWake if promising idleness. The engine owns dec and its
	// slices; adversaries must not retain them across calls. Combinators
	// forward the same dec to their inner adversary and then edit it in
	// place.
	Schedule(v *View, dec *Decision)
	// Delays answers one broadcast by `from` at `sentAt` (the paper's
	// d-adversary choosing a delay for each copy). When every copy shares
	// one delay and none is dropped it returns that delay, in [1, D()],
	// and leaves out untouched: the engine schedules the whole broadcast
	// as one event. Otherwise it returns 0 and fills out[j] for every
	// recipient j != from (out has length P; out[from] is ignored) with a
	// delay in [1, D()] or with Omitted — a message-omission fault: the
	// copy is charged to the sender's message complexity but never
	// delivered. An adversary with a per-recipient rule fills the slots:
	//
	//	for j := range out {
	//		if j != from {
	//			out[j] = delay(from, j, sentAt)
	//		}
	//	}
	//	return 0
	//
	// Both engines call Delays exactly once per broadcast, so stateful
	// adversaries (random delay streams) replay identically across them.
	Delays(from int, sentAt int64, out []int64) (uniform int64)
}

// Result aggregates the complexity measures of one execution.
type Result struct {
	// Solved reports whether all tasks were performed and some processor
	// learned it before the step cap.
	Solved bool
	// SolvedAt is the global time σ at which the problem became solved
	// (all tasks done and ≥ 1 processor informed); -1 if never.
	SolvedAt int64
	// Work is W of Definition 2.1: total local steps of live processors
	// summed up to and including time σ.
	Work int64
	// Messages is M of Definition 2.2: point-to-point messages sent up to
	// and including time σ.
	Messages int64
	// TotalSteps and TotalMessages extend the counts to the whole
	// execution (until every processor halted or crashed, or the cap).
	TotalSteps, TotalMessages int64
	// Multicasts, Crashes, Revivals and Omissions count the execution's
	// whole-run events: broadcasts (TotalMessages is their summed
	// recipient count), adversary
	// crashes of processors not already down, crash-restart revivals, and
	// message copies the network dropped (charged in TotalMessages, never
	// delivered). They are exactly the totals of the matching Observer
	// hooks, so counting consumers need no observer.
	Multicasts, Crashes, Revivals, Omissions int64
	// Bytes is the wire volume (in bytes) of the point-to-point messages
	// counted in Messages, for payloads that implement
	// interface{ WireSize() int }; other payloads contribute zero. Byte
	// volume is an engineering metric — the paper's message complexity is
	// the count in Messages.
	Bytes int64
	// TaskExecutions counts every task performance, with multiplicity.
	TaskExecutions int64
	// PrimaryExecutions counts performances of tasks not performed by
	// anyone at any earlier time unit (Section 4: "primary"); concurrent
	// first performances all count. SecondaryExecutions is the rest.
	PrimaryExecutions, SecondaryExecutions int64
	// PerProcWork[i] is the number of steps processor i was charged.
	PerProcWork []int64
	// FirstDoneAt[z] is the time task z was first performed, or -1.
	FirstDoneAt []int64
	// HaltedEarly reports whether some processor halted before the
	// problem was solved (a Proposition 2.1 violation by the algorithm).
	HaltedEarly bool
}

// reset clears the result for a fresh run, reusing the per-processor and
// per-task slices when the shape matches.
func (r *Result) reset(p, t int) {
	per, first := r.PerProcWork, r.FirstDoneAt
	*r = Result{SolvedAt: -1}
	if cap(per) >= p {
		per = per[:p]
		clear(per)
	} else {
		per = make([]int64, p)
	}
	if cap(first) >= t {
		first = first[:t]
	} else {
		first = make([]int64, t)
	}
	for z := range first {
		first[z] = -1
	}
	r.PerProcWork, r.FirstDoneAt = per, first
}

// Config configures a simulation run.
type Config struct {
	// P is the number of processors; machines must have length P.
	P int
	// T is the number of tasks.
	T int
	// MaxSteps caps global time to guard against non-terminating
	// executions; 0 means the default of 10^7.
	MaxSteps int64
	// StopAtSolved stops the simulation at time σ instead of running
	// until all processors halt. Work/Messages are identical either way;
	// TotalSteps/TotalMessages differ.
	StopAtSolved bool
	// Observer, when non-nil, receives a callback at every observable
	// event of the execution (see Observer). Attaching one never changes
	// the engine's code path, only which hooks are called; nil costs
	// nothing. The legacy reference engine (RunLegacy) ignores it.
	Observer Observer
	// Shards enables the intra-run parallel tick engine: each time unit's
	// live-processor schedule is split into Shards contiguous ranges whose
	// Machine.Step calls run on worker goroutines, followed by a serial
	// reduction in schedule order that applies broadcasts, ledger
	// updates, and accounting. Results are byte-identical at every shard
	// count (asserted by the equivalence tests); only wall-clock time
	// changes. Values ≤ 1 select the sequential engine; values above P are
	// clamped. Shards must be a resolved count — callers offering an
	// "auto" policy translate it before building the Config (see
	// scenario.ResolveShards). The legacy reference engine ignores it.
	Shards int
}

// ErrStepCap is returned when the simulation hits MaxSteps before the
// problem is solved.
var ErrStepCap = errors.New("sim: step cap exceeded before Do-All was solved")

// ResetMachines restores every machine to its initial state via the
// Resetter extension, reporting whether all of them supported it. It is
// the machine half of an allocation-free re-trial (Engine.Run being the
// engine half); on a false return some machines were not reset and the
// set must be rebuilt instead.
func ResetMachines(machines []Machine) bool {
	ok := true
	for _, m := range machines {
		if r, can := m.(Resetter); can {
			r.Reset()
		} else {
			ok = false
		}
	}
	return ok
}

// MachineSet pairs a machine slice with its Resetter facets, asserted
// once at construction, so steady-state trial loops can reset machines
// with plain interface method calls. The distinction matters for the
// zero-allocation contract: the runtime populates each m.(Resetter)
// assertion site's itab cache lazily and randomly (~1/1024 of cache
// misses allocate a new site cache), so a loop that calls ResetMachines
// every trial keeps a small per-trial chance of one stray heap
// allocation alive for on the order of a thousand trials — the root
// cause of the intermittent 1 alloc/op in the steady-state gates. A
// MachineSet front-loads the assertions into construction and its Reset
// performs none.
type MachineSet struct {
	machines  []Machine
	resetters []Resetter // resetters[i] is machines[i]'s Resetter, nil when unsupported
	all       bool       // every machine supports Reset
}

// NewMachineSet captures the machines (the slice is aliased, not copied)
// and asserts their Resetter facets once.
func NewMachineSet(machines []Machine) *MachineSet {
	s := &MachineSet{machines: machines, resetters: make([]Resetter, len(machines)), all: true}
	for i, m := range machines {
		r, can := m.(Resetter)
		if !can {
			s.all = false
		}
		s.resetters[i] = r
	}
	return s
}

// Machines returns the captured machine slice, for handing to Engine.Run.
func (s *MachineSet) Machines() []Machine { return s.machines }

// Reset restores every Resetter machine to its initial state, reporting
// whether all machines supported it — identical semantics to
// ResetMachines, minus the per-call interface assertions.
func (s *MachineSet) Reset() bool {
	for _, r := range s.resetters {
		if r != nil {
			r.Reset()
		}
	}
	return s.all
}

// CloneMachines deep-copies a machine set via the Cloner extension,
// reporting whether every machine supported it (on false the returned
// slice is nil). Benchmarks and look-ahead harnesses use it to stamp out
// fresh trials from one pristine, possibly expensive-to-build set.
func CloneMachines(machines []Machine) ([]Machine, bool) {
	out := make([]Machine, len(machines))
	for i, m := range machines {
		c, can := m.(Cloner)
		if !can {
			return nil, false
		}
		cm := c.CloneMachine()
		if cm == nil {
			return nil, false
		}
		out[i] = cm
	}
	return out, true
}

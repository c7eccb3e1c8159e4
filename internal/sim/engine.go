package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// Run executes machines under the adversary and returns the measured
// complexities. It is deterministic given deterministic machines and
// adversary, and produces Results identical to RunLegacy's for every
// algorithm × adversary pair (asserted by the equivalence tests).
//
// Run builds a fresh Engine per call, so the returned Result is the
// caller's to keep. Trial loops that run many simulations of the same
// shape should hold one Engine and call its Run method instead: the
// engine's wheel buckets, inboxes, result arrays, and multicast pool then
// carry over from trial to trial and steady-state runs allocate nothing.
// Run closes its engine, so a sharded run leaves no worker behind.
func Run(cfg Config, machines []Machine, adv Adversary) (*Result, error) {
	e := NewEngine()
	defer e.Close()
	return e.Run(cfg, machines, adv)
}

// Engine is a reusable multicast-native simulation engine: one broadcast
// is one pooled Multicast record plus one timing-wheel event per distinct
// delay — one for a uniform answer — never p-1 heap-queued message
// copies. Inbox slices, the adversary View and Decision, the delay and
// sort scratch, and the Result arrays are all engine-owned and reused
// across ticks and across runs; idle stretches announced via
// Decision.NextWake are fast-forwarded instead of ticked through.
//
// Delivery is grouped: all uniform multicasts due at one time unit form a
// single shared Batch consumed by reference by every live processor, so a
// broadcast's delivery fan-out costs O(1) instead of p-1 inbox appends,
// and BatchConsumer machines share one combined-knowledge merge per batch
// instead of paying one merge per sender per recipient. A per-recipient
// delay class fans into its recipients' inboxes in the same time unit.
// The adversary and an attached Observer see the deliveries a per-message
// engine would make (View.Inbox, Observer.OnDeliver), and Results equal
// RunLegacy's (asserted by the equivalence tests).
//
// An Engine is not safe for concurrent use; sweeps hold one per worker.
type Engine struct {
	cfg        Config
	machines   []Machine
	adv        Adversary
	obs        Observer // cfg.Observer; nil = zero-cost no hooks
	d          int64    // adv.D(), cached
	wheel      *wheel
	inbox      [][]Delivery
	crashed    []bool
	halted     []bool
	stopped    int // processors crashed or halted
	tasks      *TaskLedger
	tickUndone int // tasks.Undone() when this tick's steps began
	inflight   int // message copies sent and not yet delivered
	res        Result
	view       View      // reused across ticks; only Now/InFlight change
	dec        Decision  // reused across ticks; adversaries append into it
	delays     []int64   // Adversary.Delays fill scratch, length P, zero between broadcasts
	classes    []int32   // sortByDelay's counting-sort scratch, length P+2
	sendSeq    int64     // next Multicast.seq
	orders     [][]int32 // recipient orders, indexed by Multicast.order-1
	freeOrders []int32   // indices of orders not held by a record
	// recyclers[i] is machines[i]'s PayloadRecycler, nil when unsupported.
	recyclers []PayloadRecycler
	// sizers[i] is machines[i]'s PayloadSizer, nil when unsupported.
	sizers []PayloadSizer
	// facetSrc[i] is the machine whose optional facets are cached in
	// recyclers/sizers/batchers[i]; an engine-owned copy (not an alias
	// of the caller's slice) so in-place element swaps are detected. This
	// is a zero-allocation contract, not just a shortcut: the runtime
	// populates each assertion site's itab cache lazily and randomly
	// (~1/1024 of misses allocate a new cache), so asserting the facets
	// once per run keeps a small per-run chance of one stray steady-state
	// allocation alive for ~1000 runs. Non-comparable machines are never
	// recorded, which keeps the == test panic-free.
	facetSrc []Machine
	// freeMC pools Multicast records across broadcasts and runs; a record
	// returns here once its last outstanding delivery is consumed.
	freeMC   []*Multicast
	idle     bool
	nextWake int64

	// Grouped delivery state. ringBuf[ringHead:] holds the live batches,
	// oldest first; the batch at ringBuf[ringHead] has sequence number
	// ringSeq0 and batchSeq is the next sequence to assign. cursor[i] is
	// the sequence of the first batch processor i has not consumed;
	// batchers[i] caches machines[i]'s BatchConsumer. since[j] is the
	// build watermark of sender j: every consumer of a batch not yet
	// formed has merged, through earlier combined caches, sender j's
	// knowledge up to version since[j] (see buildCache). revived[i] is
	// the last unit processor i revived at, 0 if it never did.
	ringBuf   []*Batch
	ringHead  int
	ringSeq0  int64
	batchSeq  int64
	cursor    []int64
	batchers  []BatchConsumer
	since     []int64
	revived   []int64
	freeBatch []*Batch

	// Tick state; see parallel.go. shards is the resolved per-run shard
	// count (1 = sequential). The shard blocks hold per-shard scratch, the
	// staged accounting every tick reduces into (the sequential tick uses
	// block 0), and the parked worker goroutines' wake channels;
	// stepList/parRes are a parallel tick's schedule and captured step
	// results; parNb is its pending-batch count.
	shards   int
	shard    []shardBlock
	stepList []int32
	parRes   []StepResult
	parDone  sync.WaitGroup
	parNow   int64
	parN     int
	parNsh   int
	parNb    int
	launched int // worker goroutines running (shards 1..launched)

	// Parallel tick phase profile: accumulated wall-clock nanoseconds of
	// phases A1/A2/B and the number of parallel ticks profiled, monotone
	// over the engine's lifetime (PhaseProfile; not reset by Run).
	phaseNs  [3]int64
	parTicks int64
}

// NewEngine returns an empty engine; the first Run sizes its buffers.
func NewEngine() *Engine { return &Engine{} }

// Run executes machines under the adversary, reusing every internal
// buffer left over from previous runs of compatible shape.
//
// The returned Result is owned by the engine and overwritten by the next
// Run call; copy any fields that must outlive it. The package-level Run
// wrapper returns a caller-owned Result instead.
func (e *Engine) Run(cfg Config, machines []Machine, adv Adversary) (*Result, error) {
	maxSteps, err := validateRun(cfg, machines, adv)
	if err != nil {
		return nil, err
	}
	e.reset(cfg, machines, adv)

	for now := int64(0); now < maxSteps; {
		if e.stopped == cfg.P {
			break
		}
		e.tick(now)
		if e.res.Solved && cfg.StopAtSolved {
			break
		}
		next := now + 1
		if e.idle && e.nextWake > next {
			// Nothing stepped and the adversary promised to stay idle
			// until nextWake: jump straight to the next instant at which
			// anything can happen (a wake-up or a message delivery). The
			// skipped units are exact no-ops — no steps, no deliveries,
			// no accounting — so Results are unchanged.
			target := e.nextWake
			if due := e.wheel.nextDue(); due >= 0 && due < target {
				target = due
			}
			if target > next {
				next = target
			}
		}
		now = next
	}
	e.drain()
	if !e.res.Solved {
		return &e.res, ErrStepCap
	}
	return &e.res, nil
}

// drain releases every delivery still outstanding when the run ends —
// events left in the wheel, deliveries never consumed from inboxes, and
// whole delivery batches with their multicast chains and combined
// knowledge caches — recycling the records and handing pooled payloads
// back to the senders. Runs routinely end with messages in flight (the
// last halting step's broadcast, at least), and without the drain those
// payload buffers (and their snapshot delta chains) would leak out of
// their machines' pools, costing a fresh allocation per lost buffer on
// the next trial. Draining has no observable effect on the Result; it
// only settles buffer ownership.
func (e *Engine) drain() {
	w := e.wheel
	for _, evs := range w.buckets {
		for _, ev := range evs {
			e.release(ev.mc, ev.copies(e.cfg.P))
		}
	}
	for _, ev := range w.overflow {
		e.release(ev.mc, ev.copies(e.cfg.P))
	}
	w.reset()
	for i := range e.inbox {
		for _, d := range e.inbox[i] {
			e.release(d.MC, 1)
		}
		clear(e.inbox[i])
		e.inbox[i] = e.inbox[i][:0]
	}
	for idx := e.ringHead; idx < len(e.ringBuf); idx++ {
		e.retireBatch(e.ringBuf[idx])
		e.ringBuf[idx] = nil
	}
	e.ringBuf = e.ringBuf[:0]
	e.ringHead = 0
	e.ringSeq0 = e.batchSeq
}

// reset prepares the engine for a run, reallocating only the buffers
// whose shape changed since the previous run.
func (e *Engine) reset(cfg Config, machines []Machine, adv Adversary) {
	p, t := cfg.P, cfg.T
	if len(e.inbox) != p {
		e.inbox = make([][]Delivery, p)
		e.crashed = make([]bool, p)
		e.halted = make([]bool, p)
		e.delays = make([]int64, p)
		e.classes = make([]int32, p+2)
		e.orders, e.freeOrders = nil, nil // sized P-1
		e.recyclers = make([]PayloadRecycler, p)
		e.sizers = make([]PayloadSizer, p)
		e.facetSrc = make([]Machine, p)
		e.batchers = make([]BatchConsumer, p)
		e.cursor = make([]int64, p)
		e.since = make([]int64, p)
		e.revived = make([]int64, p)
	} else {
		for i := range e.inbox {
			// Unconsumed deliveries from the previous run: drop the
			// references (their records are not recycled — they may hold
			// the previous machines' payloads).
			clear(e.inbox[i])
			e.inbox[i] = e.inbox[i][:0]
		}
		clear(e.crashed)
		clear(e.halted)
	}
	if e.tasks == nil {
		e.tasks = NewTaskLedger(t)
	} else {
		e.tasks.Reset(t)
	}
	for i, m := range machines {
		if e.facetSrc[i] == m {
			continue // facets cached from a previous run with this machine
		}
		e.recyclers[i], _ = m.(PayloadRecycler)
		e.sizers[i], _ = m.(PayloadSizer)
		e.batchers[i], _ = m.(BatchConsumer)
		if reflect.TypeOf(m).Comparable() {
			e.facetSrc[i] = m
		} else {
			e.facetSrc[i] = nil
		}
	}
	e.cfg = cfg
	e.machines = machines
	e.adv = adv
	e.obs = cfg.Observer
	e.d = adv.D()
	if e.wheel == nil || len(e.wheel.buckets) != wheelBuckets(e.d) {
		e.wheel = newWheel(e.d)
	} else {
		e.wheel.reset()
	}
	e.shards = 1
	if cfg.Shards > 1 && p > 1 {
		e.shards = min(cfg.Shards, p)
	}
	e.ensureShards(e.shards)
	// A drain (or a fresh engine) leaves the ring empty; defensively drop
	// any leftovers without recycling — they could reference the previous
	// run's machines.
	for idx := e.ringHead; idx < len(e.ringBuf); idx++ {
		e.ringBuf[idx] = nil
	}
	e.ringBuf = e.ringBuf[:0]
	e.ringHead = 0
	e.ringSeq0 = 0
	e.batchSeq = 0
	clear(e.cursor)
	clear(e.since)
	clear(e.revived)
	e.stopped = 0
	e.inflight = 0
	e.idle = false
	e.nextWake = 0
	e.res.reset(p, t)
	e.dec.reset()
	e.view = View{
		P:        p,
		T:        t,
		Tasks:    e.tasks, // shared; adversaries must not mutate
		Machines: machines,
		Crashed:  e.crashed,
		Halted:   e.halted,
		pending:  e,
	}
}

// getMC takes a multicast record from the pool (or allocates the pool's
// next record) and initializes it for a send from i at time now.
func (e *Engine) getMC(i int, now int64, payload any, outstanding int32) *Multicast {
	var mc *Multicast
	if n := len(e.freeMC); n > 0 {
		mc = e.freeMC[n-1]
		e.freeMC = e.freeMC[:n-1]
	} else {
		mc = new(Multicast)
	}
	mc.From = i
	mc.SentAt = now
	mc.Payload = payload
	mc.outstanding = outstanding
	mc.seq, e.sendSeq = e.sendSeq, e.sendSeq+1
	return mc
}

// release drops n outstanding deliveries of mc; the last release
// recycles the record, handing the payload back to the sender when it
// pools payloads (PayloadRecycler).
func (e *Engine) release(mc *Multicast, n int) {
	mc.outstanding -= int32(n)
	if mc.outstanding == 0 {
		e.recycleMC(mc)
	}
}

// recycleMC returns a fully released record to the pool.
func (e *Engine) recycleMC(mc *Multicast) {
	if rc := e.recyclers[mc.From]; rc != nil && mc.Payload != nil {
		rc.RecyclePayload(mc.Payload)
	}
	if mc.order != 0 { // drained with delay classes still in the wheel
		e.freeOrders = append(e.freeOrders, mc.order-1)
		mc.order = 0
	}
	mc.Payload = nil
	mc.outstanding = 0
	e.freeMC = append(e.freeMC, mc)
}

// getBatch takes a delivery-batch record from the pool.
func (e *Engine) getBatch() *Batch {
	if n := len(e.freeBatch); n > 0 {
		b := e.freeBatch[n-1]
		e.freeBatch = e.freeBatch[:n-1]
		return b
	}
	return &Batch{Builder: -1}
}

// retireBatch recycles a fully consumed batch: its multicast records (and
// their payload chains) return to the senders, its combined knowledge
// cache returns to the machine that built it.
func (e *Engine) retireBatch(b *Batch) {
	for k, mc := range b.MCs {
		b.MCs[k] = nil
		e.recycleMC(mc)
	}
	b.MCs = b.MCs[:0]
	if b.Combined != nil {
		if rc := e.recyclers[b.Builder]; rc != nil {
			rc.RecyclePayload(b.Combined)
		}
		b.Combined = nil
	}
	b.Builder = -1
	b.remaining = 0
	e.freeBatch = append(e.freeBatch, b)
}

// popRetired pops fully consumed batches off the ring front. Batches
// retire in ring order: consumers always consume prefix ranges and crash
// decrements apply immediately, so an older batch's remaining count
// reaches zero no later than a newer one's.
func (e *Engine) popRetired() {
	for e.ringHead < len(e.ringBuf) && e.ringBuf[e.ringHead].remaining == 0 {
		e.retireBatch(e.ringBuf[e.ringHead])
		e.ringBuf[e.ringHead] = nil
		e.ringHead++
		e.ringSeq0++
	}
	if e.ringHead == len(e.ringBuf) {
		e.ringBuf = e.ringBuf[:0]
		e.ringHead = 0
	}
}

// dropBatches releases a crashed processor's claim on every batch it had
// not consumed.
func (e *Engine) dropBatches(i int) {
	if e.cursor[i] < e.ringSeq0 {
		e.cursor[i] = e.ringSeq0
	}
	for seq := e.cursor[i]; seq < e.batchSeq; seq++ {
		e.ringBuf[e.ringHead+int(seq-e.ringSeq0)].remaining--
	}
	e.cursor[i] = e.batchSeq
	e.popRetired()
}

// deliverBucket routes one timing-wheel bucket's events. Its uniform
// multicasts become one shared Batch — O(multicasts) work regardless of
// p — and each per-recipient delay class fans into its recipients'
// inboxes. Batch and inbox deliveries can share a time unit; every inbox
// view orders them by send sequence (materializeInto), and a tail only
// adds knowledge a batch's combined cache need not carry. An observer
// sees one OnDeliver per live recipient in bucket order, then ascending
// recipient per event: the legacy engine's delivery order.
func (e *Engine) deliverBucket(evs []wevent, at int64) {
	p := e.cfg.P
	var b *Batch
	for _, ev := range evs {
		mc := ev.mc
		e.inflight -= ev.copies(p)
		if ev.lo >= 0 {
			order := e.orders[mc.order-1]
			to := order[ev.lo:ev.hi]
			if int(ev.hi) == len(order) { // the longest delay: no event reads it later
				e.freeOrders = append(e.freeOrders, mc.order-1)
				mc.order = 0
			}
			for _, j := range to {
				e.deliverOne(mc, int(j), at)
			}
			continue
		}
		if b == nil {
			b = e.getBatch()
			b.At = at
		}
		b.MCs = append(b.MCs, mc)
		if e.obs != nil {
			for j := 0; j < p; j++ {
				if j != mc.From && !e.crashed[j] && !e.halted[j] {
					e.obs.OnDeliver(Message{From: mc.From, To: j, SentAt: mc.SentAt, DeliverAt: at, Payload: mc.Payload})
				}
			}
		}
	}
	if b != nil {
		// Every live processor consumes it; Run stops once none is left.
		b.remaining = int32(p - e.stopped)
		e.buildCache(b)
		e.ringBuf = append(e.ringBuf, b)
		e.batchSeq++
	}
}

func (e *Engine) deliverOne(mc *Multicast, j int, at int64) {
	if e.crashed[j] || e.halted[j] {
		// The recipient will never consume this delivery; drop the
		// reference now so the record can be recycled.
		e.release(mc, 1)
		return
	}
	e.inbox[j] = append(e.inbox[j], Delivery{MC: mc, At: at})
	if e.obs != nil {
		e.obs.OnDeliver(Message{From: mc.From, To: j, SentAt: mc.SentAt, DeliverAt: at, Payload: mc.Payload})
	}
}

// pending returns processor i's unconsumed batches, oldest first.
func (e *Engine) pending(i int) []*Batch {
	cur := max(e.cursor[i], e.ringSeq0) // a live processor's cursor is never behind
	return e.ringBuf[e.ringHead+int(cur-e.ringSeq0):]
}

// buildCache publishes b's combined knowledge cache (Batch.Combined),
// built when the batch forms: the senders' BatchConsumers are asked in
// batch order, and the first that returns a cache builds it. A build
// folds in each payload's knowledge newer than the sender's watermark
// (since) and raises the watermark; every consumer of b consumed every
// earlier batch, so the cache carries exactly what some consumer of b
// may lack. A revive zeroes the watermarks: the rejoined machine knows
// nothing, and the next caches carry every sender's whole knowledge. A
// batch holding a multicast its sender sent before reviving gets no
// cache, and its consumers merge it one multicast at a time: the sender
// skips its own forgotten knowledge, and each receiver merges the older
// life's snapshots whole. Machines only read a Batch, so
// every step meets the same caches whatever the shard count.
func (e *Engine) buildCache(b *Batch) {
	for _, mc := range b.MCs {
		if mc.SentAt < e.revived[mc.From] {
			return
		}
	}
	for _, mc := range b.MCs {
		if bc := e.batchers[mc.From]; bc != nil {
			if c := bc.BuildCombined(b, e.since); c != nil {
				b.Combined, b.Builder = c, int32(mc.From)
				return
			}
		}
	}
}

// pendingInbox implements View.Inbox: processor i's pending batches
// materialized with its per-recipient deliveries, exactly the inbox a
// plain Machine's next step receives. Crashed and halted processors
// consume nothing, so they have none.
func (e *Engine) pendingInbox(i int) []Delivery {
	if e.crashed[i] || e.halted[i] {
		return nil
	}
	sb := &e.shard[0] // the sequential tick steps on it only after Schedule
	sb.scratch = materializeInto(sb.scratch, e.pending(i), e.inbox[i], i)
	return sb.scratch
}

// materializeInto builds in buf the inbox a machine that does not
// implement BatchConsumer steps on: processor i's pending batches (minus
// its own multicasts) merged with its inbox deliveries by (At, send
// sequence), the legacy engine's order, which both inputs already follow.
// It returns the built, possibly regrown, slice.
func materializeInto(buf []Delivery, pend []*Batch, inbox []Delivery, i int) []Delivery {
	sc := buf[:0]
	bi := 0
	for _, b := range pend {
		for _, mc := range b.MCs {
			if mc.From == i {
				continue
			}
			for bi < len(inbox) && (inbox[bi].At < b.At || inbox[bi].At == b.At && inbox[bi].MC.seq < mc.seq) {
				sc = append(sc, inbox[bi])
				bi++
			}
			sc = append(sc, Delivery{MC: mc, At: b.At})
		}
	}
	return append(sc, inbox[bi:]...)
}

// stepMachine runs machine i's local step for this time unit, stores its
// result in *r (in place: the result is seven words, and copying it out
// and back costs measurably per step), and stages the step's commutative
// share of the engine update into shard block sb: batch cursor
// advancement and the consumption histogram that mergeBlocks folds into
// the batches' remaining counts, step and work counters, task-execution
// classification, and message, multicast and byte charges. Everything
// order-dependent — inbox release, broadcasts, the task ledger, halts,
// observer hooks — is left to finishStep.
// It runs on the engine's goroutine in the sequential tick (block 0) and
// on the step's shard worker in a parallel one, and besides the machine
// writes only sb and the stepping processor's own cursor and PerProcWork
// entry. That is what makes the parallel tick possible: concurrent calls
// for distinct machines are data-race-free because a step reads only the
// machine's own state, immutable snapshots/batches, and combined caches
// the engine published when the batches formed (buildCache).
//
// BatchConsumer machines read the ring's batches directly; other
// machines get their batches materialized into sb's scratch.
//
//   - Result.Solved is constant within a tick, so the conditional work and
//     message split is applied once, at merge time.
//   - A task is primary iff no earlier time unit performed it: its
//     ledger bit is clear, or an earlier step of this tick performed it
//     first (FirstDoneAt is now). The second read happens only when the
//     ledger's undone count fell since the tick began, which needs a
//     sequential tick (its finishStep runs between steps): a parallel
//     tick's A2 reads only the frozen ledger, never FirstDoneAt.
//     Out-of-range tasks are left for finishStep's validation panic.
//   - A broadcast charges p-1 messages and p-1 copies of its payload's
//     byte size, omitted copies included, and counts one multicast, so
//     no adversary query is needed here and a stateful delay stream
//     stays untouched until finishStep draws it (which is where
//     omissions are counted).
func (e *Engine) stepMachine(i int, now int64, sb *shardBlock, r *StepResult) {
	inbox := e.inbox[i]
	pend := e.pending(i)
	switch bc := e.batchers[i]; {
	case len(pend) == 0:
		*r = e.machines[i].Step(now, inbox)
	case bc != nil:
		*r = bc.StepBatched(now, pend, inbox)
	default:
		sb.scratch = materializeInto(sb.scratch, pend, inbox, i)
		*r = e.machines[i].Step(now, sb.scratch)
	}

	if n := len(pend); n > 0 {
		// The first pending batch's ring offset (sb.consumed has one entry
		// per pending batch).
		sb.consumed[len(sb.consumed)-n]++
		e.cursor[i] = e.batchSeq
	}
	sb.steps++
	e.res.PerProcWork[i]++
	if z := r.PerformedTask(); uint(z) < uint(e.cfg.T) { // NoTask and out-of-range tasks skip
		sb.taskExecs++
		if !e.tasks.Done(z) || e.tasks.Undone() < e.tickUndone && e.res.FirstDoneAt[z] == now {
			sb.primary++
		} else {
			sb.secondary++
		}
	}
	// Bytes count only until Solved (mergeBlocks drops them after), so
	// payload sizes are not computed past it.
	counting := !e.res.Solved
	if r.Broadcast != nil && e.cfg.P > 1 {
		n := int64(e.cfg.P - 1)
		sb.msgs += n
		sb.mcasts++
		if counting {
			sb.bytes += e.wireSize(i, r.Broadcast) * n
		}
	}
}

// finishStep applies the order-dependent rest of a completed step, in
// schedule order after stepMachine staged its commutative share:
// inbox release, the observer's OnStep, task-ledger set-bits (in schedule
// order, so the Undone count each halt check reads is exactly the
// mid-tick value), multicast publication into the wheel (with its
// adversary delay query and pool traffic — this is what keeps stateful
// delay streams and pool LIFO order identical between the sequential and
// parallel ticks) and its OnOmit and OnMulticast hooks, the omission
// counts, halting, and the informed check.
func (e *Engine) finishStep(i int, now int64, r *StepResult, informed *bool) {
	// The machine consumed its inbox: drop the delivery references
	// (recycling records whose last recipient this was) and reuse the
	// backing array for future deliveries. The stale entries beyond the
	// truncated length are not cleared on the hot path — they can only
	// reference pooled records, which the engine keeps alive anyway; reset
	// clears everything between runs.
	inbox := e.inbox[i]
	for _, d := range inbox {
		e.release(d.MC, 1)
	}
	e.inbox[i] = inbox[:0]
	if e.obs != nil {
		// Copy before handing out the address: the engine-owned result
		// must not escape through the hook.
		hooked := *r
		e.obs.OnStep(i, now, &hooked)
	}

	if z := r.PerformedTask(); z != NoTask {
		if z < 0 || z >= e.cfg.T {
			panic(fmt.Sprintf("sim: machine %d performed out-of-range task %d", i, z))
		}
		if e.tasks.MarkDone(z) {
			e.res.FirstDoneAt[z] = now
		}
	}

	if r.Broadcast != nil && e.cfg.P > 1 {
		e.broadcast(i, now, r.Broadcast)
	}

	if r.Halt {
		if !e.halted[i] {
			e.stopped++
		}
		e.halted[i] = true
		if !e.res.Solved && !(e.tasks.Undone() == 0 && e.machines[i].KnowsAllDone()) {
			e.res.HaltedEarly = true
		}
	}
	if e.tasks.Undone() == 0 && e.machines[i].KnowsAllDone() {
		*informed = true
	}
}

// tick advances one global time unit (mirrors legacyState.tick step for
// step; any observable divergence is an engine bug).
func (e *Engine) tick(now int64) {
	// 1. Deliver messages due now (and any skipped over, defensively).
	e.wheel.advanceTo(now, e.deliverBucket)

	// 2. Ask the adversary for this unit's schedule.
	v := &e.view
	v.Now = now
	v.InFlight = e.inflight
	dec := &e.dec
	dec.reset()
	e.adv.Schedule(v, dec)
	for _, i := range dec.Crash {
		if i >= 0 && i < e.cfg.P && !e.crashed[i] {
			if !e.halted[i] {
				e.stopped++
			}
			e.crashed[i] = true
			// Deliveries the processor received but never consumed are
			// lost with the crash: release them now so their records
			// recycle promptly (and a later revive starts with an empty
			// inbox).
			for _, d := range e.inbox[i] {
				e.release(d.MC, 1)
			}
			e.inbox[i] = e.inbox[i][:0]
			e.dropBatches(i)
			e.res.Crashes++
			if e.obs != nil {
				e.obs.OnCrash(i, now)
			}
		}
	}
	for _, i := range dec.Revive {
		if i >= 0 && i < e.cfg.P && e.crashed[i] && !e.halted[i] {
			e.crashed[i] = false
			e.stopped--
			// Skip every batch formed while the processor was down (its
			// crash released its claim on them); batches formed from now
			// on count it as a consumer again.
			e.cursor[i] = e.batchSeq
			clear(e.since)
			e.revived[i] = now
			RejoinMachine(e.machines[i])
			e.res.Revivals++
			if e.obs != nil {
				e.obs.OnRevive(i, now)
			}
		}
	}
	e.nextWake = dec.NextWake
	stepped := 0

	// 3. Execute the scheduled local steps, in parallel shards when
	// configured (and the tick qualifies), sequentially otherwise. Both
	// are stepMachine + finishStep per scheduled processor, with the
	// staged blocks merged once per tick, so they cannot diverge.
	informed := false
	ranPar := false
	e.tickUndone = e.tasks.Undone()
	if e.shards > 1 {
		stepped, informed, ranPar = e.tickPar(now)
	}
	if !ranPar {
		nb := int(e.batchSeq - e.ringSeq0)
		sb := &e.shard[0]
		sb.begin(nb)
		var r StepResult
		for _, i := range dec.Active {
			if i < 0 || i >= e.cfg.P || e.crashed[i] || e.halted[i] {
				continue
			}
			e.stepMachine(i, now, sb, &r)
			stepped++
			e.finishStep(i, now, &r, &informed)
		}
		e.mergeBlocks(1, nb)
	}
	e.idle = stepped == 0
	// Retire batches whose last consumer stepped this unit (deferred off
	// the per-step path: retirement only triggers once per batch).
	e.popRetired()

	// 4. Solved check: all tasks done and some live processor informed.
	if !e.res.Solved && e.tasks.Undone() == 0 {
		if !informed {
			for i, m := range e.machines {
				if !e.crashed[i] && m.KnowsAllDone() {
					informed = true
					break
				}
			}
		}
		if informed {
			e.res.Solved = true
			e.res.SolvedAt = now
			if e.obs != nil {
				e.obs.OnSolved(now, &e.res)
			}
		}
	}
}

// broadcast schedules one multicast with one adversary call and one
// pooled Multicast record. A uniform answer, or a fill whose copies all
// share one delay, is one wheel event — the p²-allocations hot path of
// the per-message engine reduced to zero steady-state allocations. Any
// other fill sorts the kept copies into delay classes (sortByDelay) and
// schedules one event per class, and drops each omitted copy: still
// charged to the sender's message complexity (stepMachine staged the
// charge), never put in flight. When every copy is omitted the record is
// recycled on the spot, handing the payload back to the sender's pool.
func (e *Engine) broadcast(i int, now int64, payload any) {
	p := e.cfg.P
	delays := e.delays
	dl := e.adv.Delays(i, now, delays)
	if dl < 0 || dl > e.d {
		panic(fmt.Sprintf("sim: adversary delay %d outside [1,%d]", dl, e.d))
	}
	kept, spread, filled := p-1, false, dl == 0
	if filled {
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			switch x := delays[j]; {
			case x == Omitted:
				kept--
				spread = true
				e.res.Omissions++
				if e.obs != nil {
					e.obs.OnOmit(i, j, now)
				}
			case x < 1 || x > e.d:
				panic(fmt.Sprintf("sim: adversary delay %d outside [1,%d]", x, e.d))
			case dl == 0:
				dl = x
			case x != dl:
				spread = true
			}
		}
	}
	mc := e.getMC(i, now, payload, int32(kept))
	if !spread {
		e.wheel.push(wevent{mc: mc, lo: -1}, now+dl)
	} else if kept > 0 {
		order := e.sortByDelay(mc, kept)
		for lo, hi := 0, 1; lo < kept; hi++ {
			if hi == kept || delays[order[hi]] != delays[order[lo]] {
				e.wheel.push(wevent{mc: mc, lo: int32(lo), hi: int32(hi)}, now+delays[order[lo]])
				lo = hi
			}
		}
	}
	if filled {
		// The scratch is zero before every Delays call, so a slot an
		// adversary leaves unfilled reads 0 and fails the validation.
		clear(delays)
	}
	e.inflight += kept
	if e.obs != nil {
		e.obs.OnMulticast(i, now, payload, p-1)
	}
	if kept == 0 {
		// Every copy omitted: nothing is in flight, so the payload goes
		// straight back to the sender's pool (after the hook above, which
		// may still read it).
		e.recycleMC(mc)
	}
}

// sortByDelay gives mc a pooled recipient order holding the kept
// recipients of the delay fill by delay, then id, in O(P) memory: a
// counting sort when d ≤ P (1.7x faster than the stable sort on DA's
// random p=1024 cell), a stable sort of the ids otherwise.
func (e *Engine) sortByDelay(mc *Multicast, kept int) []int32 {
	if len(e.freeOrders) == 0 {
		e.freeOrders = append(e.freeOrders, int32(len(e.orders)))
		e.orders = append(e.orders, make([]int32, e.cfg.P-1))
	}
	k := e.freeOrders[len(e.freeOrders)-1]
	e.freeOrders = e.freeOrders[:len(e.freeOrders)-1]
	mc.order = k + 1
	delays, from, order := e.delays, mc.From, e.orders[k][:kept]
	e.orders[k] = order
	if e.d > int64(e.cfg.P) {
		order = order[:0]
		for j, x := range delays {
			if j != from && x != Omitted {
				order = append(order, int32(j))
			}
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(delays[a], delays[b]) })
		return order
	}
	// next[x+1] counts delay x; the prefix sums make next[x] the next
	// slot of class x.
	next := e.classes[:e.d+2]
	clear(next)
	for j, x := range delays {
		if j != from && x != Omitted {
			next[x+1]++
		}
	}
	for x := 1; x < len(next); x++ {
		next[x] += next[x-1]
	}
	for j, x := range delays {
		if j != from && x != Omitted {
			order[next[x]] = int32(j)
			next[x]++
		}
	}
	return order
}

// wireSize returns payload's wire size for byte accounting, preferring
// sender i's PayloadSizer facet (a direct method call over concrete type
// checks) and falling back to the payload.(Payload) assertion for
// machines without one. The facet path matters for the zero-allocation
// gates: the fallback assertion's runtime site cache is populated
// lazily at random (~1/1024 of misses allocate the new cache), so a per-
// message assertion keeps a small chance of one stray steady-state heap
// allocation alive for on the order of a thousand messages.
func (e *Engine) wireSize(i int, payload any) int64 {
	if s := e.sizers[i]; s != nil {
		return int64(s.PayloadWireSize(payload))
	}
	if sz, ok := payload.(Payload); ok {
		return int64(sz.WireSize())
	}
	return 0
}

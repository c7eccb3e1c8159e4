package sim

import "time"

// The intra-run parallel tick engine (Config.Shards > 1). One time unit's
// scheduled steps are executed by worker goroutines in three phases:
//
//  A1 (serial): the schedule is filtered exactly like the sequential
//      loop's. The combined-knowledge caches the steps will read were
//      published when their batches formed (buildCache, during delivery),
//      and no machine step writes a Batch, so the ring is read-only from
//      here to the end of the tick.
//  A2 (parallel): the schedule is split into contiguous shards; each
//      shard's machines step concurrently against the shared ring (the
//      immutable multicast lists and published combined caches). Each
//      shard also stages its steps' commutative accounting (stepMachine)
//      — step/work counters, task-execution classification, message and
//      byte charges, batch cursor advancement and consumption counts —
//      into its own cache-line-padded block.
//  B (serial): the blocks are merged in one O(shards) pass (mergeBlocks,
//      which the sequential tick also ends with), then the order-dependent
//      rest of every step (finishStep) runs in schedule order — observer
//      hooks, multicast publication into the pool and wheel (with its
//      adversary delay queries), inbox release, task-ledger set-bits,
//      halts, and the informed check — so every engine-shared structure
//      mutates, and every hook fires, in exactly the sequential tick's
//      order.
//
// Byte-identity argument, in brief: steps within one time unit are
// input-independent (messages sent at time τ deliver at τ+1 at the
// earliest), a step reads only its machine's private state plus immutable
// snapshots and published caches, every cache is built at delivery, before
// any step of the tick, from the batch's immutable payloads and the
// engine's build watermarks alone (no machine state), the staged
// accounting is commutative across the tick's steps (Result.Solved is
// constant within a tick, a task's primary/secondary class depends only
// on whether an earlier time unit performed it, and message charges are
// omission-independent), and phase B replays every remaining shared-state
// mutation in schedule order. The equivalence matrix in
// internal/scenario asserts the identity across all algorithms, fault
// adversaries, and shard counts.
//
// Ticks that cannot be proven safe fall back to the sequential loop for
// that unit: a schedule that is not strictly increasing (no registered
// adversary produces one, but Decision.Active is caller data) or one with
// fewer than two runnable machines.

// shardBlock is one shard's private scratch: the worker's wake channel,
// materialization scratch for non-BatchConsumer machines (block 0's also
// backs View.Inbox), and the staged accounting counters. The leading and
// trailing pads keep neighboring blocks in the engine's shard slice from
// sharing cache lines, so concurrent counter writes never false-share.
type shardBlock struct {
	_       [64]byte
	wake    chan struct{} // nil until the shard's worker is launched (shard 0 has none)
	scratch []Delivery

	// Staged accounting, reset at the start of each tick (begin): step and
	// message accounting for the shard's schedule range, and consumed[o] =
	// number of the shard's steppers whose first unconsumed pending batch
	// is at ring offset o (batch b's remaining count then drops by the
	// prefix sum over offsets ≤ b's).
	steps     int64
	msgs      int64
	mcasts    int64
	bytes     int64
	taskExecs int64
	primary   int64
	secondary int64
	consumed  []int32
	_         [64]byte
}

// begin resets the block's staged accounting for a tick with nb pending
// batches.
func (sb *shardBlock) begin(nb int) {
	sb.steps, sb.msgs, sb.mcasts, sb.bytes = 0, 0, 0, 0
	sb.taskExecs, sb.primary, sb.secondary = 0, 0, 0
	if cap(sb.consumed) < nb {
		sb.consumed = make([]int32, nb)
	}
	sb.consumed = sb.consumed[:nb]
	clear(sb.consumed)
}

// mergeBlocks folds the staged accounting of shard blocks [0, nsh) into
// the Result and the nb pending batches' remaining counts.
func (e *Engine) mergeBlocks(nsh, nb int) {
	var steps, msgs, mcasts, bytes, texecs, prim, sec int64
	for s := 0; s < nsh; s++ {
		sb := &e.shard[s]
		steps += sb.steps
		msgs += sb.msgs
		mcasts += sb.mcasts
		bytes += sb.bytes
		texecs += sb.taskExecs
		prim += sb.primary
		sec += sb.secondary
	}
	e.res.TotalSteps += steps
	e.res.TaskExecutions += texecs
	e.res.PrimaryExecutions += prim
	e.res.SecondaryExecutions += sec
	e.res.TotalMessages += msgs
	e.res.Multicasts += mcasts
	if !e.res.Solved {
		e.res.Work += steps
		e.res.Messages += msgs
		e.res.Bytes += bytes
	}
	// Batch b's remaining count drops once per stepper whose first
	// unconsumed offset is ≤ b's: a running prefix sum over the shards'
	// consumption histograms.
	cum := int32(0)
	for o := 0; o < nb; o++ {
		for s := 0; s < nsh; s++ {
			cum += e.shard[s].consumed[o]
		}
		e.ringBuf[e.ringHead+o].remaining -= cum
	}
}

// ensureShards grows the shard-block slice to nsh entries and launches
// the parked worker goroutines for shards 1..nsh-1 (shard 0 runs on the
// engine's goroutine). Workers are launched once and then parked on
// their wake channels between ticks and between runs — respawning per
// tick would put a goroutine-closure allocation on the steady-state hot
// path. Close stops them.
func (e *Engine) ensureShards(nsh int) {
	if len(e.shard) < nsh {
		blocks := make([]shardBlock, nsh)
		copy(blocks, e.shard)
		e.shard = blocks
	}
	for s := e.launched + 1; s < nsh; s++ {
		if e.shard[s].wake == nil {
			wake := make(chan struct{}, 1)
			e.shard[s].wake = wake
			go e.shardWorker(s, wake)
		}
	}
	if nsh-1 > e.launched {
		e.launched = nsh - 1
	}
}

// shardWorker is one parked worker: each wake runs its shard's slice of
// the schedule (phase A2). The wake send happens-before the worker's
// reads of the tick state, and the worker's result writes happen-before
// the engine's parDone.Wait return.
func (e *Engine) shardWorker(s int, wake <-chan struct{}) {
	for range wake {
		e.runShard(s)
		e.parDone.Done()
	}
}

// Close stops the engine's parked shard workers. The engine stays
// usable — the next parallel run relaunches them. A parked worker keeps
// its engine reachable, so a sharded engine dropped without Close keeps
// its workers and every buffer it holds until process exit; the
// package-level Run closes the engine it builds.
func (e *Engine) Close() {
	for s := 1; s <= e.launched && s < len(e.shard); s++ {
		if e.shard[s].wake != nil {
			close(e.shard[s].wake)
			e.shard[s].wake = nil
		}
	}
	e.launched = 0
}

// shardRange returns shard s's half-open slice [lo, hi) of n schedule
// positions split into nsh contiguous near-equal ranges.
func shardRange(n, nsh, s int) (lo, hi int) {
	base, rem := n/nsh, n%nsh
	lo = s * base
	if s < rem {
		lo += s
	} else {
		lo += rem
	}
	hi = lo + base
	if s < rem {
		hi++
	}
	return lo, hi
}

// runShard steps every machine in shard s's range of the current tick's
// schedule, capturing results into parRes, and stages the range's
// commutative accounting into the shard block: per-processor work and
// batch cursors are written directly (each scheduled processor belongs to
// exactly one shard), everything aggregated is summed locally and merged
// by the engine in phase B.
func (e *Engine) runShard(s int) {
	lo, hi := shardRange(e.parN, e.parNsh, s)
	sb := &e.shard[s]
	now := e.parNow
	sb.begin(e.parNb)
	for k := lo; k < hi; k++ {
		pid := int(e.stepList[k])
		e.stepMachine(pid, now, sb, &e.parRes[k])
	}
}

// tickPar executes one time unit's scheduled steps in parallel. It
// returns (stepped, informed, true) when it ran, or ok=false when the
// tick does not qualify and the caller must run the sequential loop
// (nothing has been mutated in that case).
func (e *Engine) tickPar(now int64) (int, bool, bool) {
	// Phase A1: filter the schedule exactly like the sequential loop,
	// bailing out if it is not strictly increasing (the replay phase
	// assumes each processor steps at most once per unit, in index order).
	t0 := time.Now()
	sl := e.stepList[:0]
	last := int32(-1)
	for _, i := range e.dec.Active {
		if i < 0 || i >= e.cfg.P || e.crashed[i] || e.halted[i] {
			continue
		}
		if int32(i) <= last {
			e.stepList = sl[:0]
			return 0, false, false
		}
		last = int32(i)
		sl = append(sl, int32(i))
	}
	e.stepList = sl
	n := len(sl)
	nsh := e.shards
	if nsh > n {
		nsh = n
	}
	if nsh < 2 {
		e.stepList = sl[:0]
		return 0, false, false
	}
	if cap(e.parRes) < n {
		e.parRes = make([]StepResult, n)
	}
	e.parRes = e.parRes[:n]
	nb := int(e.batchSeq - e.ringSeq0)

	// Phase A2: fan the schedule out across the shards. The engine's
	// goroutine runs shard 0 itself.
	e.parNow, e.parN, e.parNsh, e.parNb = now, n, nsh, nb
	t1 := time.Now()
	e.parDone.Add(nsh - 1)
	for s := 1; s < nsh; s++ {
		e.shard[s].wake <- struct{}{}
	}
	e.runShard(0)
	e.parDone.Wait()
	t2 := time.Now()

	// Phase B: merge the staged blocks, then apply the order-dependent
	// rest of every step in schedule order.
	e.mergeBlocks(nsh, nb)
	informed := false
	for k, pid := range sl {
		e.finishStep(int(pid), now, &e.parRes[k], &informed)
	}

	e.phaseNs[0] += int64(t1.Sub(t0))
	e.phaseNs[1] += int64(t2.Sub(t1))
	e.phaseNs[2] += int64(time.Since(t2))
	e.parTicks++
	return n, informed, true
}

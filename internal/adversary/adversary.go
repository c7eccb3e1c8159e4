// Package adversary provides implementations of the d-adversary of
// Kowalski & Shvartsman Section 2.2: schedulers that control processor
// speeds, crashes, and message delays up to a bound d. It includes benign
// adversaries (fair, random) used to measure upper bounds, crash
// adversaries for fault-tolerance tests, and the lower-bound constructions
// of Theorems 3.1 and 3.4.
package adversary

import (
	"math/rand"

	"doall/internal/sim"
)

// Fair is the benign d-adversary: every processor takes a step every time
// unit and every message is delayed exactly Delay units (Delay ≤ d). With
// Delay == 1 it models the fastest legal network.
type Fair struct {
	Bound int64 // d
	Fixed int64 // actual delay applied, 1 ≤ Fixed ≤ Bound (0 means Bound)
}

var (
	_ sim.Adversary        = (*Fair)(nil)
	_ sim.MulticastDelayer = (*Fair)(nil)
	_ sim.UniformDelayer   = (*Fair)(nil)
)

// NewFair returns a Fair adversary with delay bound d that delays every
// message by exactly d.
func NewFair(d int64) *Fair { return &Fair{Bound: d, Fixed: d} }

// D implements sim.Adversary.
func (a *Fair) D() int64 { return a.Bound }

// Schedule implements sim.Adversary: all live processors step. It
// appends into the engine-owned decision, so scheduling allocates nothing
// once dec.Active has grown to capacity P.
func (a *Fair) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}

// Delay implements sim.Adversary.
func (a *Fair) Delay(from, to int, sentAt int64) int64 {
	if a.Fixed >= 1 && a.Fixed <= a.Bound {
		return a.Fixed
	}
	return a.Bound
}

// DelayMulticast implements sim.MulticastDelayer: one call answers a whole
// broadcast with the uniform fixed delay.
func (a *Fair) DelayMulticast(from int, sentAt int64, out []int64) {
	d := a.Delay(from, from, sentAt)
	for j := range out {
		out[j] = d
	}
}

// DelayUniform implements sim.UniformDelayer: the fixed delay never
// depends on the recipient.
func (a *Fair) DelayUniform(from int, sentAt int64) (int64, bool) {
	return a.Delay(from, from, sentAt), true
}

// Random is a d-adversary that activates each processor independently with
// probability Activity each unit and delays each message uniformly in
// [1, d]. It models "disparate processor speeds and varying message
// latency" (paper Section 1). All randomness is drawn from a seeded source
// so runs are reproducible.
type Random struct {
	Bound    int64
	Activity float64
	rng      *rand.Rand
}

var (
	_ sim.Adversary        = (*Random)(nil)
	_ sim.MulticastDelayer = (*Random)(nil)
)

// NewRandom returns a Random adversary with delay bound d, per-unit
// activation probability activity, and the given seed.
func NewRandom(d int64, activity float64, seed int64) *Random {
	return &Random{Bound: d, Activity: activity, rng: rand.New(rand.NewSource(seed))}
}

// D implements sim.Adversary.
func (a *Random) D() int64 { return a.Bound }

// Schedule implements sim.Adversary. To keep executions live it activates
// at least one non-crashed, non-halted processor each unit.
func (a *Random) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		if v.Crashed[i] || v.Halted[i] {
			continue
		}
		if a.rng.Float64() < a.Activity {
			dec.Active = append(dec.Active, i)
		}
	}
	if len(dec.Active) == 0 {
		for i := 0; i < v.P; i++ {
			if !v.Crashed[i] && !v.Halted[i] {
				dec.Active = append(dec.Active, i)
				break
			}
		}
	}
}

// Delay implements sim.Adversary.
func (a *Random) Delay(from, to int, sentAt int64) int64 {
	return 1 + a.rng.Int63n(a.Bound)
}

// DelayMulticast implements sim.MulticastDelayer. It draws delays in
// ascending recipient order, consuming the random stream exactly as the
// per-recipient Delay loop would, so both engine paths are replayable
// against each other.
func (a *Random) DelayMulticast(from int, sentAt int64, out []int64) {
	for j := range out {
		if j != from {
			out[j] = 1 + a.rng.Int63n(a.Bound)
		}
	}
}

// CrashEvent schedules processor Pid to crash at time At.
type CrashEvent struct {
	Pid int
	At  int64
}

// Crashing wraps another adversary and injects crash failures at scheduled
// times. The wrapped adversary's scheduling, delays, and optional engine
// extensions are otherwise used unchanged (forwardInner). It never
// crashes the last live processor (the model requires at least one
// survivor).
type Crashing struct {
	forwardInner
	Events []CrashEvent
}

var (
	_ sim.Adversary        = (*Crashing)(nil)
	_ sim.MulticastDelayer = (*Crashing)(nil)
	_ sim.UniformDelayer   = (*Crashing)(nil)
	_ sim.Omitter          = (*Crashing)(nil)
)

// NewCrashing wraps inner with the given crash schedule.
func NewCrashing(inner sim.Adversary, events []CrashEvent) *Crashing {
	return &Crashing{forwardInner: forward(inner), Events: events}
}

// Schedule implements sim.Adversary. Crash injection is a Schedule side
// effect tied to exact times, so any NextWake idle promise inherited from
// the inner adversary is clamped to the next pending crash event —
// otherwise the engine's fast-forward would jump over the event's time
// unit and silently drop the crash. The survivor guard counts crashes an
// inner adversary already recorded in dec this unit (pendingLive), so
// composed fault injectors can never kill the last live processor
// between them.
func (a *Crashing) Schedule(v *sim.View, dec *sim.Decision) {
	a.Inner.Schedule(v, dec)
	live := pendingLive(v, dec)
	for _, e := range a.Events {
		if e.Pid < 0 || e.Pid >= v.P {
			continue
		}
		if e.At == v.Now && live > 1 && !v.Crashed[e.Pid] && !crashScheduled(dec, e.Pid) {
			dec.Crash = append(dec.Crash, e.Pid)
			live--
		}
		if dec.NextWake > 0 && e.At > v.Now && e.At < dec.NextWake && !v.Crashed[e.Pid] {
			dec.NextWake = e.At
		}
	}
}

// SlowSet is a d-adversary that runs a designated subset of processors at
// a fraction of full speed (one step every Period units) while the rest
// run at full speed; messages are delayed by the full bound d. It models
// persistent speed disparity.
type SlowSet struct {
	Bound  int64
	Slow   map[int]bool
	Period int64
}

var (
	_ sim.Adversary        = (*SlowSet)(nil)
	_ sim.MulticastDelayer = (*SlowSet)(nil)
	_ sim.UniformDelayer   = (*SlowSet)(nil)
)

// NewSlowSet returns a SlowSet adversary: processors in slow take one step
// every period units.
func NewSlowSet(d int64, slow []int, period int64) *SlowSet {
	m := make(map[int]bool, len(slow))
	for _, i := range slow {
		m[i] = true
	}
	return &SlowSet{Bound: d, Slow: m, Period: period}
}

// D implements sim.Adversary.
func (a *SlowSet) D() int64 { return a.Bound }

// Schedule implements sim.Adversary. When every processor is in the slow
// set and off-period (nothing can step), the decision carries a NextWake
// promise so the engine fast-forwards to the next period boundary.
func (a *SlowSet) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		if a.Slow[i] && v.Now%a.Period != 0 {
			continue
		}
		dec.Active = append(dec.Active, i)
	}
	if len(dec.Active) == 0 {
		dec.NextWake = (v.Now/a.Period + 1) * a.Period
	}
}

// Delay implements sim.Adversary.
func (a *SlowSet) Delay(from, to int, sentAt int64) int64 { return a.Bound }

// DelayMulticast implements sim.MulticastDelayer.
func (a *SlowSet) DelayMulticast(from int, sentAt int64, out []int64) {
	for j := range out {
		out[j] = a.Bound
	}
}

// DelayUniform implements sim.UniformDelayer.
func (a *SlowSet) DelayUniform(from int, sentAt int64) (int64, bool) { return a.Bound, true }

// SlowSetOver is the composable form of SlowSet: it wraps another
// adversary and removes the designated slow processors from its schedule
// except every Period-th unit, leaving the inner adversary's crashes and
// message delays untouched. Composition makes mixed scenarios declarative —
// e.g. Crashing over SlowSetOver over Fair gives a network with fixed
// delays, a persistently slow subset, and scheduled crash failures. With a
// Fair inner adversary it produces exactly the Results of the standalone
// SlowSet (asserted by tests).
//
// Unlike the standalone SlowSet, SlowSetOver never adds a NextWake
// promise of its own: skipping to the next period boundary would also
// skip the inner adversary's per-unit Schedule calls, and those may carry
// time-dependent side effects (crash injection, stage bookkeeping) that
// the engine's fast-forward must not jump over. It only forwards promises
// the inner adversary itself makes. Prefer plain SlowSet when no inner
// composition is needed.
type SlowSetOver struct {
	forwardInner
	Slow   map[int]bool
	Period int64
}

var (
	_ sim.Adversary        = (*SlowSetOver)(nil)
	_ sim.MulticastDelayer = (*SlowSetOver)(nil)
	_ sim.UniformDelayer   = (*SlowSetOver)(nil)
	_ sim.Omitter          = (*SlowSetOver)(nil)
)

// NewSlowSetOver wraps inner so processors in slow step only every period
// units (when inner schedules them at all).
func NewSlowSetOver(inner sim.Adversary, slow []int, period int64) *SlowSetOver {
	m := make(map[int]bool, len(slow))
	for _, i := range slow {
		m[i] = true
	}
	if period < 1 {
		period = 1
	}
	return &SlowSetOver{forwardInner: forward(inner), Slow: m, Period: period}
}

// Schedule implements sim.Adversary: the inner decision filtered in
// place to drop slow processors off-period. The inner adversary's
// NextWake promise stays valid — filtering only removes activations,
// never adds them — so idle fast-forwarding still works when the inner
// adversary promises it.
func (a *SlowSetOver) Schedule(v *sim.View, dec *sim.Decision) {
	a.Inner.Schedule(v, dec)
	if v.Now%a.Period != 0 {
		kept := dec.Active[:0]
		for _, i := range dec.Active {
			if !a.Slow[i] {
				kept = append(kept, i)
			}
		}
		dec.Active = kept
	}
}

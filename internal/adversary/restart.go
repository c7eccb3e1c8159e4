package adversary

import "doall/internal/sim"

// RestartEvent schedules one restartable-crash fault: processor Pid
// crashes at CrashAt and revives at ReviveAt (> CrashAt). Between the two
// instants the processor takes no steps and every delivery addressed to
// it is lost; at ReviveAt it re-enters the live set with fresh initial
// knowledge (sim.RejoinMachine).
type RestartEvent struct {
	Pid      int
	CrashAt  int64
	ReviveAt int64
}

// Restarting wraps another adversary and injects restartable-crash
// faults at scheduled times — the crash-restart analogue of Crashing.
// The wrapped adversary's scheduling and delays are otherwise used
// unchanged (forwardInner). Like Crashing it never crashes the last live
// processor, and it clamps any inherited
// NextWake idle promise to the next pending crash or revive instant so
// the engine's fast-forward cannot jump over a fault event.
//
// A revive resurrects only processors whose crash THIS wrapper injected.
// Ownership is decided at the crash instant: whichever layer's event
// actually fires owns the downtime, so a processor fail-stopped by a
// composed inner adversary (restarting over crashing, say) stays down,
// and when both layers name the same pid at the same instant the inner
// adversary's claim, already in dec.Crash, wins. The one composition
// this cannot express is an inner fail-stop scheduled at an instant
// where the processor is already inside this wrapper's downtime: fault
// events aimed at an already-crashed processor are no-ops for every
// injector (Crashing included), so the inner event never fires, claims
// nothing, and does not block the revive — schedule the inner crash at
// or after the revive instant to fail-stop a restartable processor.
// The wrapper tracks its injected crashes across Schedule calls and
// clears them at time 0, so one value can drive consecutive runs (but
// never concurrent ones).
//
// A revive also only takes effect while the execution is still running:
// if every processor has crashed or halted, the run ends and pending
// revives do not resurrect a dead system (both engines stop on the same
// condition, so this is deterministic).
type Restarting struct {
	forwardInner
	Events []RestartEvent
	// injected marks processors whose crash this wrapper scheduled (and
	// the engine, whose acceptance conditions Schedule mirrors, applied).
	injected map[int]bool
}

var _ sim.Adversary = (*Restarting)(nil)

// NewRestarting wraps inner with the given crash-restart schedule.
// Events whose ReviveAt is not after their CrashAt revive never (they
// degrade to plain crashes).
func NewRestarting(inner sim.Adversary, events []RestartEvent) *Restarting {
	return &Restarting{forwardInner: forwardInner{inner}, Events: events}
}

// Schedule implements sim.Adversary. Crash and revive injection are
// Schedule side effects tied to exact times, so any NextWake promise
// inherited from the inner adversary is clamped to the next pending
// event — otherwise the engine's fast-forward would skip the event's
// time unit and silently drop the fault.
func (a *Restarting) Schedule(v *sim.View, dec *sim.Decision) {
	if v.Now == 0 {
		// Both engines start at time 0, so this is the start of a fresh
		// execution: drop crash ownership left over from a previous run.
		clear(a.injected)
	}
	a.Inner.Schedule(v, dec)
	live := pendingLive(v, dec)
	for _, e := range a.Events {
		if e.Pid < 0 || e.Pid >= v.P {
			continue
		}
		// Claim the crash only if no one else (the inner adversary, or an
		// earlier event this unit) already scheduled this pid: an inner
		// fail-stop of the same pid at the same instant wins, and the
		// revive below must then never fire.
		if e.CrashAt == v.Now && live > 1 && !v.Crashed[e.Pid] && !crashScheduled(dec, e.Pid) {
			dec.Crash = append(dec.Crash, e.Pid)
			live--
			if a.injected == nil {
				a.injected = make(map[int]bool)
			}
			a.injected[e.Pid] = true
		}
		if e.ReviveAt == v.Now && e.ReviveAt > e.CrashAt && v.Crashed[e.Pid] && a.injected[e.Pid] {
			dec.Revive = append(dec.Revive, e.Pid)
			live++
			delete(a.injected, e.Pid)
		}
		if dec.NextWake > 0 {
			if e.CrashAt > v.Now && e.CrashAt < dec.NextWake && !v.Crashed[e.Pid] {
				dec.NextWake = e.CrashAt
			}
			if e.ReviveAt > v.Now && e.ReviveAt < dec.NextWake && e.ReviveAt > e.CrashAt {
				dec.NextWake = e.ReviveAt
			}
		}
	}
}

package adversary

import "doall/internal/sim"

// forwardInner is the embedded half of every wrapping combinator
// (Crashing, Restarting, Omitting, SlowSetOver): it holds the wrapped
// adversary and forwards the whole sim.Adversary contract to it — D,
// Schedule and Delays — so a wrapper answers a broadcast exactly as its
// inner adversary does, uniform return and omitted slots included.
// Wrappers override what they specialize: Schedule, and Omitting also
// Delays.
type forwardInner struct {
	// Inner is the wrapped adversary (promoted, so wrapper.Inner reads
	// work).
	Inner sim.Adversary
}

// D implements sim.Adversary.
func (f forwardInner) D() int64 { return f.Inner.D() }

// Schedule implements sim.Adversary, forwarding unchanged; combinators
// that edit the decision override it.
func (f forwardInner) Schedule(v *sim.View, dec *sim.Decision) { f.Inner.Schedule(v, dec) }

// Delays implements sim.Adversary, forwarding unchanged.
func (f forwardInner) Delays(from int, sentAt int64, out []int64) int64 {
	return f.Inner.Delays(from, sentAt, out)
}

// pendingLive returns how many processors remain live once the crashes
// already recorded in dec (by inner adversaries or earlier combinator
// layers in this same Schedule call) are applied. Fault injectors must
// base their never-kill-the-last-survivor guard on it, not on v.Crashed
// alone — the engine applies dec.Crash only after Schedule returns.
func pendingLive(v *sim.View, dec *sim.Decision) int {
	live := 0
	for i := 0; i < v.P; i++ {
		if !v.Crashed[i] {
			live++
		}
	}
	for k, pid := range dec.Crash {
		if pid < 0 || pid >= v.P || v.Crashed[pid] {
			continue
		}
		dup := false
		for _, q := range dec.Crash[:k] {
			if q == pid {
				dup = true
				break
			}
		}
		if !dup {
			live--
		}
	}
	return live
}

// crashScheduled reports whether pid already appears in dec.Crash (an
// inner adversary or an earlier event claimed the crash this unit).
func crashScheduled(dec *sim.Decision, pid int) bool {
	for _, q := range dec.Crash {
		if q == pid {
			return true
		}
	}
	return false
}

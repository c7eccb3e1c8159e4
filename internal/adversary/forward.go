package adversary

import "doall/internal/sim"

// forwardInner is the embedded half of every wrapping combinator
// (Crashing, Restarting, Omitting, SlowSetOver): it holds the wrapped
// adversary and forwards the whole delay contract plus every optional
// engine extension to it, so a wrapper stays on the engine's fast paths
// exactly when its inner adversary does. Centralizing the forwarding
// matters beyond deduplication: engines assert extensions on the
// outermost adversary only, so a wrapper that forgets to forward one
// silently strips the behavior from compositions (an omission fault
// vanishing inside crashing(omitting(fair)), say). A future sim
// extension needs a forwarding method here, once, and every combinator
// picks it up by promotion. Wrappers override what they specialize —
// Schedule, and Omitting also the Omitter pair.
//
// The inner adversary's extension implementations are resolved once at
// construction (forward), not per call — Delay*/Omit* run on the
// engine's per-broadcast path. Inner must not be replaced after
// construction, or the cached capabilities go stale.
type forwardInner struct {
	// Inner is the wrapped adversary (promoted, so wrapper.Inner reads
	// work; construct via the NewX constructors, never by literal).
	Inner sim.Adversary
	md    sim.MulticastDelayer
	ud    sim.UniformDelayer
	om    sim.Omitter
}

// forward builds the embedded forwarder, resolving the inner adversary's
// optional extensions once.
func forward(inner sim.Adversary) forwardInner {
	f := forwardInner{Inner: inner}
	f.md, _ = inner.(sim.MulticastDelayer)
	f.ud, _ = inner.(sim.UniformDelayer)
	f.om, _ = inner.(sim.Omitter)
	return f
}

// D implements sim.Adversary.
func (f forwardInner) D() int64 { return f.Inner.D() }

// Schedule implements sim.Adversary, forwarding unchanged; combinators
// that edit the decision override it.
func (f forwardInner) Schedule(v *sim.View, dec *sim.Decision) { f.Inner.Schedule(v, dec) }

// Delay implements sim.Adversary.
func (f forwardInner) Delay(from, to int, sentAt int64) int64 {
	return f.Inner.Delay(from, to, sentAt)
}

// DelayMulticast implements sim.MulticastDelayer, forwarding to the
// inner adversary's batched path when it has one and adapting its
// per-recipient Delay otherwise.
func (f forwardInner) DelayMulticast(from int, sentAt int64, out []int64) {
	if f.md != nil {
		f.md.DelayMulticast(from, sentAt, out)
		return
	}
	for j := range out {
		if j != from {
			out[j] = f.Inner.Delay(from, j, sentAt)
		}
	}
}

// DelayUniform implements sim.UniformDelayer, uniform exactly when the
// inner adversary is.
func (f forwardInner) DelayUniform(from int, sentAt int64) (int64, bool) {
	if f.ud != nil {
		return f.ud.DelayUniform(from, sentAt)
	}
	return 0, false
}

// OmitsAt implements sim.Omitter, forwarding to the wrapped adversary.
func (f forwardInner) OmitsAt(from int, sentAt int64) bool {
	return f.om != nil && f.om.OmitsAt(from, sentAt)
}

// Omit implements sim.Omitter, forwarding to the wrapped adversary.
func (f forwardInner) Omit(from, to int, sentAt int64) bool {
	return f.om != nil && f.om.Omit(from, to, sentAt)
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

package adversary

import "doall/internal/sim"

// OmitWindow schedules message-omission faults: every multicast (or
// point-to-point send) issued by processor Pid with a send time in
// [From, Until) has its copies dropped by the network. The send is still
// charged to message complexity — omission is a network fault, not a
// refund — but the dropped copies are never delivered.
type OmitWindow struct {
	Pid         int
	From, Until int64
}

// Omitting wraps another adversary and injects message-omission faults:
// copies of multicasts matching one of the Windows are dropped before
// delivery. With a non-empty To list only copies addressed to the listed
// recipients are dropped — the complement still receives the multicast,
// modeling deliver-to-subset omission; an empty To drops every copy.
// Scheduling, delays, and optional engine extensions come from the
// wrapped adversary unchanged (forwardInner), so omission composes with
// any asynchrony pattern — including another omitting layer, whose
// windows remain in force through the Omitter forwarding. Omission
// needs no NextWake clamping: it keys on send times, and sends only
// happen in units where some processor steps — units a correct idle
// promise never skips.
type Omitting struct {
	forwardInner
	Windows []OmitWindow
	// To restricts which recipients lose their copies (nil/empty = all).
	To    []int
	toSet map[int]bool
}

var (
	_ sim.Adversary        = (*Omitting)(nil)
	_ sim.MulticastDelayer = (*Omitting)(nil)
	_ sim.UniformDelayer   = (*Omitting)(nil)
	_ sim.Omitter          = (*Omitting)(nil)
)

// NewOmitting wraps inner with the given omission schedule; to (may be
// nil) restricts the dropped copies to the listed recipients.
func NewOmitting(inner sim.Adversary, windows []OmitWindow, to []int) *Omitting {
	var set map[int]bool
	if len(to) > 0 {
		set = make(map[int]bool, len(to))
		for _, pid := range to {
			set[pid] = true
		}
	}
	return &Omitting{forwardInner: forward(inner), Windows: windows, To: to, toSet: set}
}

// OmitsAt implements sim.Omitter: whether any copy of a multicast sent
// by `from` at `sentAt` may be dropped, by this layer's windows or by a
// wrapped omitting adversary. Pure in its arguments.
func (a *Omitting) OmitsAt(from int, sentAt int64) bool {
	for _, w := range a.Windows {
		if w.Pid == from && sentAt >= w.From && sentAt < w.Until {
			return true
		}
	}
	return a.forwardInner.OmitsAt(from, sentAt)
}

// Omit implements sim.Omitter: whether the copy addressed to `to` is
// dropped — by this layer (window match, recipient in the To subset) or
// by a wrapped omitting adversary. Pure in its arguments.
func (a *Omitting) Omit(from, to int, sentAt int64) bool {
	for _, w := range a.Windows {
		if w.Pid == from && sentAt >= w.From && sentAt < w.Until {
			if a.toSet == nil || a.toSet[to] {
				return true
			}
			break
		}
	}
	return a.forwardInner.Omit(from, to, sentAt)
}

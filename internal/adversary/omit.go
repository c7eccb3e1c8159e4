package adversary

import "doall/internal/sim"

// OmitWindow schedules message-omission faults: every multicast issued by
// processor Pid with a send time in
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
// Scheduling and delays come from the wrapped adversary unchanged
// (forwardInner), so omission composes with any asynchrony pattern —
// including another omitting layer, whose omitted slots stay marked in
// the fill this layer extends. Omission
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

var _ sim.Adversary = (*Omitting)(nil)

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
	return &Omitting{forwardInner: forwardInner{inner}, Windows: windows, To: to, toSet: set}
}

// Delays implements sim.Adversary. The inner adversary always answers
// first, so its random stream is consumed exactly as without omission.
// When a window covers the send, the answer becomes a fill: the inner
// delays (spread from a uniform answer when there was one) with the
// copies to the To recipients, or to everyone, marked sim.Omitted.
func (a *Omitting) Delays(from int, sentAt int64, out []int64) int64 {
	dl := a.Inner.Delays(from, sentAt, out)
	if !a.covers(from, sentAt) {
		return dl
	}
	for j := range out {
		switch {
		case j == from:
		case a.toSet == nil || a.toSet[j]:
			out[j] = sim.Omitted
		case dl != 0:
			out[j] = dl
		}
	}
	return 0
}

// covers reports whether one of the windows covers a send by `from` at
// `sentAt`.
func (a *Omitting) covers(from int, sentAt int64) bool {
	for _, w := range a.Windows {
		if w.Pid == from && sentAt >= w.From && sentAt < w.Until {
			return true
		}
	}
	return false
}

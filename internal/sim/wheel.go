package sim

// wevent is one timing-wheel entry: a whole uniform-delay multicast
// (lo < 0, delivered to every processor but mc.From), or one delay class
// of a per-recipient multicast, the recipients [lo, hi) of its order
// (Multicast.order): one event per distinct delay, never one per copy.
type wevent struct {
	mc     *Multicast
	lo, hi int32 // range of the recipient order, or lo = -1 for a uniform multicast
}

// copies returns how many deliveries ev stands for in a p-processor run.
func (ev wevent) copies(p int) int {
	if ev.lo < 0 {
		return p - 1
	}
	return int(ev.hi - ev.lo)
}

// wheel is a bucketed timing wheel holding in-flight deliveries keyed on
// absolute delivery time. All events within horizon units of the cursor
// live in buckets (slot = time & mask); the rare farther-out events (only
// possible when the delay bound exceeds maxWheelHorizon) wait in overflow
// and are migrated into buckets as the cursor approaches. Push and pop
// are O(1) amortized — the legacy engine's heap paid O(log m) per message
// with m up to p·d multicasts' worth of entries.
//
// Determinism: buckets are FIFO. Events are pushed in simulation order
// (ascending send time, then ascending step order), and overflow
// migration happens at the start of a tick, before any push of that
// tick, preserving send order within every bucket. A multicast has at
// most one event per bucket (one per distinct delay), so a bucket lists
// its multicasts in send order, and an event's recipients are ascending.
// Delivery order therefore matches the legacy engine's (DeliverAt,
// send-sequence) heap order for every recipient inbox.
type wheel struct {
	buckets  [][]wevent
	mask     int64
	cur      int64 // all events at times ≤ cur have been popped
	overflow []wevent
	overdue  []int64 // delivery times of overflow events, parallel slice
	overMin  int64   // min(overdue), valid when len(overflow) > 0
	events   int     // pending events across buckets and overflow
}

// maxWheelHorizon caps the bucket count so absurd delay bounds cannot
// allocate unbounded memory; longer delays take the overflow path.
const maxWheelHorizon = 1 << 15

// wheelBuckets returns the bucket count newWheel picks for a delay
// bound: the next power of two ≥ min(bound+1, maxWheelHorizon). The
// reusable engine compares it against an existing wheel's size to decide
// between resetting and reallocating.
func wheelBuckets(bound int64) int {
	n := int64(2)
	for n < bound+1 && n < maxWheelHorizon {
		n <<= 1
	}
	return int(n)
}

// newWheel returns a wheel able to hold delays up to bound without
// overflow.
func newWheel(bound int64) *wheel {
	n := wheelBuckets(bound)
	return &wheel{buckets: make([][]wevent, n), mask: int64(n) - 1}
}

// reset empties the wheel for a fresh run, retaining bucket capacity. A
// finished run may leave events behind (runs stop at solved or when all
// processors halt, not when the network drains), so buckets and overflow
// are cleared of their multicast references explicitly.
func (w *wheel) reset() {
	if w.events > 0 {
		for i := range w.buckets {
			clear(w.buckets[i])
			w.buckets[i] = w.buckets[i][:0]
		}
		clear(w.overflow)
		w.overflow = w.overflow[:0]
		w.overdue = w.overdue[:0]
	}
	w.cur = 0
	w.overMin = 0
	w.events = 0
}

// push schedules ev for delivery at time at. at must be > w.cur.
//
// The direct-bucket bound is strict (<, matching migrateOverflow's) so a
// push can never land in a bucket that an earlier-sent overflow event for
// the same delivery time has not migrated into yet — migration runs at
// the start of each tick, before that tick's pushes, so within a bucket
// overflow events always precede later direct pushes and FIFO send order
// is preserved. Delays on the non-overflow path are ≤ bound < bucket
// count, so the strict bound only affects the giant-delay overflow case.
func (w *wheel) push(ev wevent, at int64) {
	if at <= w.cur {
		panic("sim: wheel push into the past")
	}
	w.events++
	if at-w.cur < int64(len(w.buckets)) {
		slot := at & w.mask
		w.buckets[slot] = append(w.buckets[slot], ev)
		return
	}
	if len(w.overflow) == 0 || at < w.overMin {
		w.overMin = at
	}
	w.overflow = append(w.overflow, ev)
	w.overdue = append(w.overdue, at)
}

// advanceTo moves the cursor to now, invoking fn(evs, t) once per
// non-empty bucket due at each time t in (cur, now], handing the whole
// bucket in push (FIFO) order — bucket granularity is what lets the
// engine turn a bucket's uniform events into one shared delivery batch. fn
// must not push new events (the engine only pushes during steps, after
// advanceTo) and must not retain evs, which is cleared and reused after
// fn returns.
func (w *wheel) advanceTo(now int64, fn func(evs []wevent, at int64)) {
	if w.events == 0 {
		w.cur = now
		return
	}
	horizon := int64(len(w.buckets))
	for w.cur < now {
		w.cur++
		if len(w.overflow) > 0 && w.overMin-w.cur < horizon {
			w.migrateOverflow()
		}
		slot := w.cur & w.mask
		b := w.buckets[slot]
		if len(b) == 0 {
			continue
		}
		w.events -= len(b)
		fn(b, w.cur)
		clear(b) // release *Multicast references for GC
		w.buckets[slot] = b[:0]
		if w.events == 0 {
			w.cur = now
			return
		}
	}
}

// migrateOverflow moves every overflow event now strictly within the
// horizon into its bucket, preserving push order, and recomputes the
// overflow minimum. The strict bound matters twice over: an event at
// cur+horizon would map to the slot being popped as time cur and be
// delivered early, and push uses the same strict bound so direct pushes
// can never overtake not-yet-migrated overflow events in a bucket.
func (w *wheel) migrateOverflow() {
	horizon := int64(len(w.buckets))
	kept := 0
	w.overMin = 0
	for i, at := range w.overdue {
		if at-w.cur < horizon {
			slot := at & w.mask
			w.buckets[slot] = append(w.buckets[slot], w.overflow[i])
			continue
		}
		if kept == 0 || at < w.overMin {
			w.overMin = at
		}
		w.overflow[kept] = w.overflow[i]
		w.overdue[kept] = at
		kept++
	}
	clear(w.overflow[kept:])
	w.overflow = w.overflow[:kept]
	w.overdue = w.overdue[:kept]
}

// nextDue returns the earliest pending delivery time, or -1 when the
// wheel is empty. O(buckets) — used only to bound idle fast-forward
// jumps, never on the per-tick hot path.
func (w *wheel) nextDue() int64 {
	if w.events == 0 {
		return -1
	}
	for t := w.cur + 1; t <= w.cur+int64(len(w.buckets)); t++ {
		if len(w.buckets[t&w.mask]) > 0 {
			return t
		}
	}
	if len(w.overflow) > 0 {
		return w.overMin
	}
	return -1
}

package sim

import (
	"reflect"
	"testing"
)

type delivery struct {
	at      int64
	payload any
}

func collect(w *wheel, to int64) []delivery {
	var out []delivery
	w.advanceTo(to, func(evs []wevent, at int64) {
		for _, ev := range evs {
			out = append(out, delivery{at: at, payload: ev.mc.Payload})
		}
	})
	return out
}

func ev(payload any) wevent {
	return wevent{mc: &Multicast{Payload: payload}, lo: 0, hi: 1}
}

func TestWheelDueOrdering(t *testing.T) {
	w := newWheel(8)
	w.push(ev("a"), 5)
	w.push(ev("b"), 3)
	w.push(ev("c"), 5)
	if got := collect(w, 2); len(got) != 0 {
		t.Fatalf("advanceTo(2) delivered %v, want nothing", got)
	}
	got := collect(w, 5)
	want := []delivery{{3, "b"}, {5, "a"}, {5, "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	if w.events != 0 {
		t.Fatalf("wheel not drained: %d events left", w.events)
	}
}

func TestWheelPopAllDue(t *testing.T) {
	// Every event due at or before the advance target comes out in one
	// call, even across many buckets, cursor laps, and overflow.
	w := newWheel(4)
	for at := int64(1); at <= 40; at++ {
		w.push(ev(at), at)
	}
	got := collect(w, 40)
	if len(got) != 40 {
		t.Fatalf("delivered %d events, want 40", len(got))
	}
	for i, d := range got {
		if d.at != int64(i+1) || d.payload != int64(i+1) {
			t.Fatalf("delivery %d = %+v, want at=%d", i, d, i+1)
		}
	}
}

func TestWheelFarFutureOverflow(t *testing.T) {
	// Events beyond the bucket horizon take the overflow path and are
	// migrated back as the cursor approaches, in send order.
	w := newWheel(4) // 8 buckets
	w.push(ev("far-a"), 100)
	w.push(ev("far-b"), 100)
	w.push(ev("farther"), 205)
	w.push(ev("near"), 2)
	if len(w.overflow) != 3 {
		t.Fatalf("overflow holds %d events, want 3", len(w.overflow))
	}
	if due := w.nextDue(); due != 2 {
		t.Fatalf("nextDue = %d, want 2", due)
	}
	got := collect(w, 150)
	want := []delivery{{2, "near"}, {100, "far-a"}, {100, "far-b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	if due := w.nextDue(); due != 205 {
		t.Fatalf("nextDue after partial drain = %d, want 205", due)
	}
	got = collect(w, 205)
	if !reflect.DeepEqual(got, []delivery{{205, "farther"}}) {
		t.Fatalf("overflow tail = %v", got)
	}
	if w.events != 0 || len(w.overflow) != 0 {
		t.Fatal("wheel not fully drained")
	}
}

func TestWheelNextDueEmpty(t *testing.T) {
	w := newWheel(16)
	if due := w.nextDue(); due != -1 {
		t.Fatalf("nextDue on empty wheel = %d, want -1", due)
	}
	w.push(ev("x"), 9)
	if due := w.nextDue(); due != 9 {
		t.Fatalf("nextDue = %d, want 9", due)
	}
	collect(w, 9)
	if due := w.nextDue(); due != -1 {
		t.Fatalf("nextDue after drain = %d, want -1", due)
	}
}

func TestWheelPushPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing into the past")
		}
	}()
	w := newWheel(4)
	collect(w, 10)
	w.push(ev("late"), 10)
}

func TestWheelFastForwardSkipsEmptyStretch(t *testing.T) {
	// A big jump with an empty wheel must be O(1), not O(jump): the
	// cursor snaps forward without touching buckets.
	w := newWheel(8)
	w.advanceTo(1_000_000_000, func([]wevent, int64) { t.Fatal("no events exist") })
	if w.cur != 1_000_000_000 {
		t.Fatalf("cursor = %d", w.cur)
	}
	w.push(ev("x"), 1_000_000_005)
	got := collect(w, 1_000_000_005)
	if len(got) != 1 || got[0].payload != "x" {
		t.Fatalf("post-jump delivery = %v", got)
	}
}

// TestWheelOverflowPreservesSendOrderAtHorizonBoundary pins the FIFO
// contract at the overflow/direct boundary: an event sent earlier but
// parked in overflow (delay beyond the bucket horizon) must still be
// delivered before a later-sent event pushed directly for the same
// delivery time. The direct-push bound is strict for exactly this reason.
func TestWheelOverflowPreservesSendOrderAtHorizonBoundary(t *testing.T) {
	w := newWheel(1 << 20) // bucket count capped at maxWheelHorizon
	horizon := int64(len(w.buckets))
	if horizon != maxWheelHorizon {
		t.Fatalf("bucket count %d, want the %d cap", horizon, maxWheelHorizon)
	}
	const lead = 7232
	at := horizon + lead // delivery time shared by both events

	early := &Multicast{From: 1}
	late := &Multicast{From: 2}

	// Sent at t=0: beyond the horizon, parked in overflow.
	w.push(wevent{mc: early, lo: 0, hi: 1}, at)
	// Advance to just before migration would trigger, then push the
	// later-sent event, which now sits exactly horizon units out.
	w.advanceTo(lead, func(evs []wevent, _ int64) {
		t.Fatalf("premature delivery of %+v", evs)
	})
	w.push(wevent{mc: late, lo: 0, hi: 1}, at)

	var order []int
	w.advanceTo(at, func(evs []wevent, deliveredAt int64) {
		if deliveredAt != at {
			t.Fatalf("delivered at %d, want %d", deliveredAt, at)
		}
		for _, ev := range evs {
			order = append(order, ev.mc.From)
		}
	})
	if !reflect.DeepEqual(order, []int{1, 2}) {
		t.Fatalf("delivery order %v, want [1 2] (send order)", order)
	}
}

package adversary

import (
	"math/rand"
	"testing"

	"doall/internal/sim"
)

// perCopy is a reference delay oracle asked one copy at a time, in
// ascending recipient order per broadcast.
type perCopy func(from, to int, sentAt int64) int64

// resolve reads recipient `to`'s delay from one Delays answer.
func resolve(uniform int64, out []int64, to int) int64 {
	if uniform != 0 {
		return uniform
	}
	return out[to]
}

// randomLoop replays Random's stream one copy at a time: one draw per
// recipient, skipping the sender, with the same seed.
func randomLoop(d, seed int64) perCopy {
	rng := rand.New(rand.NewSource(seed))
	return func(from, to int, sentAt int64) int64 { return 1 + rng.Int63n(d) }
}

// stageLoop answers every copy with the delay to the end of the send's
// stage on an independently built clock.
func stageLoop(c stageClock) perCopy {
	return func(from, to int, sentAt int64) int64 { return c.delayToStageEnd(sentAt) }
}

func constLoop(d int64) perCopy {
	return func(from, to int, sentAt int64) int64 { return d }
}

// TestDelayMulticastMatchesDelayLoop checks that one Delays call per
// broadcast, read per recipient, gives the same in-range delays as a
// reference oracle asked one copy at a time — including a random
// stream consumed one draw per copy in recipient order, through a
// wrapper too.
func TestDelayMulticastMatchesDelayLoop(t *testing.T) {
	const p, rounds = 7, 12
	cases := []struct {
		name string
		adv  sim.Adversary
		loop perCopy
	}{
		{"fair", NewFair(4), constLoop(4)},
		{"random", NewRandom(6, 0.5, 99), randomLoop(6, 99)},
		{"crashing-wrapping-random", NewCrashing(NewRandom(6, 0.5, 42), nil), randomLoop(6, 42)},
		{"slowset", NewSlowSet(3, []int{1}, 2), constLoop(3)},
		{"stage-det", NewStageDeterministic(4, 60), stageLoop(newStageClock(4, 60))},
		{"stage-online", NewStageOnline(4, 60), stageLoop(newStageClock(4, 60))},
	}
	for _, c := range cases {
		out := make([]int64, p)
		for sentAt := int64(0); sentAt < rounds; sentAt++ {
			from := int(sentAt) % p
			clear(out)
			dl := c.adv.Delays(from, sentAt, out)
			for j := 0; j < p; j++ {
				if j == from {
					continue
				}
				got, want := resolve(dl, out, j), c.loop(from, j, sentAt)
				if got != want {
					t.Fatalf("%s: sentAt=%d recipient %d: Delays %d != per-copy %d", c.name, sentAt, j, got, want)
				}
				if got < 1 || got > c.adv.D() {
					t.Fatalf("%s: delay %d outside [1,%d]", c.name, got, c.adv.D())
				}
			}
		}
	}
}

// plainDelayAdv fills recipient-dependent delays and implements nothing
// beyond the base Adversary interface.
type plainDelayAdv struct{ d int64 }

func (a *plainDelayAdv) D() int64                                { return a.d }
func (a *plainDelayAdv) Schedule(v *sim.View, dec *sim.Decision) {}
func (a *plainDelayAdv) Delays(from int, sentAt int64, out []int64) int64 {
	for j := range out {
		if j != from {
			out[j] = a.delay(j, sentAt)
		}
	}
	return 0
}

func (a *plainDelayAdv) delay(to int, sentAt int64) int64 { return 1 + (int64(to)+sentAt)%a.d }

// TestCrashingAdaptsNonBatchedInner checks that Crashing passes a
// per-recipient fill from an inner adversary through unchanged: it
// returns 0 and every recipient slot holds the inner delay.
func TestCrashingAdaptsNonBatchedInner(t *testing.T) {
	inner := &plainDelayAdv{d: 5}
	wrapped := NewCrashing(inner, nil)
	out := make([]int64, 4)
	if dl := wrapped.Delays(1, 10, out); dl != 0 {
		t.Fatalf("Delays returned uniform %d over a filling inner adversary", dl)
	}
	for j, got := range out {
		if j == 1 {
			continue
		}
		if want := inner.delay(j, 10); got != want {
			t.Fatalf("recipient %d: %d != %d", j, got, want)
		}
	}
}

// TestDelayUniformMatchesDelay checks the uniform return: every
// adversary whose delays do not depend on the recipient answers Delays
// with one delay in [1, D()] — the one each copy would get — and leaves
// out untouched.
func TestDelayUniformMatchesDelay(t *testing.T) {
	const p, rounds = 7, 12
	cases := []struct {
		name string
		adv  sim.Adversary
		loop perCopy
	}{
		{"fair", NewFair(4), constLoop(4)},
		{"fair-fixed", &Fair{Bound: 6, Fixed: 2}, constLoop(2)},
		{"slowset", NewSlowSet(3, []int{1}, 2), constLoop(3)},
		{"crashing-over-fair", NewCrashing(NewFair(5), nil), constLoop(5)},
		{"slowsetover-over-fair", NewSlowSetOver(NewFair(5), []int{0}, 3), constLoop(5)},
		{"stage-det", NewStageDeterministic(4, 60), stageLoop(newStageClock(4, 60))},
		{"stage-online", NewStageOnline(4, 60), stageLoop(newStageClock(4, 60))},
	}
	for _, c := range cases {
		out := make([]int64, p)
		for sentAt := int64(0); sentAt < rounds; sentAt++ {
			from := int(sentAt) % p
			got := c.adv.Delays(from, sentAt, out)
			if got < 1 || got > c.adv.D() {
				t.Fatalf("%s: uniform delay %d outside [1,%d]", c.name, got, c.adv.D())
			}
			for j := 0; j < p; j++ {
				if out[j] != 0 {
					t.Fatalf("%s: uniform return wrote out[%d] = %d", c.name, j, out[j])
				}
				if j == from {
					continue
				}
				if want := c.loop(from, j, sentAt); got != want {
					t.Fatalf("%s: sentAt=%d recipient %d: uniform %d != per-copy %d", c.name, sentAt, j, got, want)
				}
			}
		}
	}
}

// TestDelayUniformRefusesNonUniformInner checks the combinator rule:
// wrapping a recipient-dependent adversary answers with a fill (0), so
// the engine schedules per recipient.
func TestDelayUniformRefusesNonUniformInner(t *testing.T) {
	for name, adv := range map[string]sim.Adversary{
		"random":                  NewRandom(6, 0.5, 1),
		"crashing-over-random":    NewCrashing(NewRandom(6, 0.5, 1), nil),
		"crashing-over-plain":     NewCrashing(&plainDelayAdv{d: 5}, nil),
		"slowsetover-over-random": NewSlowSetOver(NewRandom(6, 0.5, 1), []int{0}, 2),
	} {
		out := make([]int64, 4)
		if dl := adv.Delays(0, 3, out); dl != 0 {
			t.Fatalf("%s: uniform %d over a recipient-dependent adversary", name, dl)
		}
		for j := 1; j < len(out); j++ {
			if out[j] < 1 || out[j] > adv.D() {
				t.Fatalf("%s: filled out[%d] = %d outside [1,%d]", name, j, out[j], adv.D())
			}
		}
	}
}

// TestFaultCombinatorsForwardExtensions asserts the fault combinators
// keep their inner adversary's answer shape: uniform over fair (the
// engine's one-event path), the inner fill over a filling adversary.
func TestFaultCombinatorsForwardExtensions(t *testing.T) {
	for name, wrap := range map[string]func(sim.Adversary) sim.Adversary{
		"restarting": func(in sim.Adversary) sim.Adversary { return NewRestarting(in, nil) },
		"omitting":   func(in sim.Adversary) sim.Adversary { return NewOmitting(in, nil, nil) },
	} {
		out := make([]int64, 4)
		if dl := wrap(NewFair(3)).Delays(0, 0, out); dl != 3 {
			t.Errorf("%s(fair): Delays = %d, want uniform 3", name, dl)
		}
		for j, v := range out {
			if v != 0 {
				t.Errorf("%s(fair): uniform return wrote out[%d] = %d", name, j, v)
			}
		}
		inner := &plainDelayAdv{d: 5}
		if dl := wrap(inner).Delays(0, 7, out); dl != 0 {
			t.Errorf("%s(plain): Delays = %d, want a fill", name, dl)
		}
		for j := 1; j < len(out); j++ {
			if want := inner.delay(j, 7); out[j] != want {
				t.Errorf("%s(plain): out[%d] = %d, want %d", name, j, out[j], want)
			}
		}
	}
}

package adversary_test

import (
	"slices"
	"strings"
	"testing"

	"doall/internal/adversary"
	"doall/internal/scenario"
	"doall/internal/sim"
)

// bareOf names, for every registered adversary, the leaf adversary whose
// delays it answers with: combinators leave delays to their inner
// adversary (fair by default), and slow-set's standalone form delays by
// the full bound, as fair does. A new built-in must be added here.
var bareOf = map[string]string{
	"fair":         "fair",
	"random":       "random",
	"crashing":     "fair",
	"restarting":   "fair",
	"omitting":     "fair",
	"slow-set":     "fair",
	"stage-det":    "stage-det",
	"stage-online": "stage-online",
}

// dropped is the contract test's omission oracle: whether any Omitting
// layer in adv's wrapper chain drops the copy from `from` to `to` sent at
// `sentAt` — a window covering the send, and `to` in that layer's To.
func dropped(adv sim.Adversary, from, to int, sentAt int64) bool {
	for adv != nil {
		switch a := adv.(type) {
		case *adversary.Omitting:
			for _, w := range a.Windows {
				if w.Pid == from && sentAt >= w.From && sentAt < w.Until {
					if len(a.To) == 0 || slices.Contains(a.To, to) {
						return true
					}
					break
				}
			}
			adv = a.Inner
		case *adversary.Crashing:
			adv = a.Inner
		case *adversary.Restarting:
			adv = a.Inner
		case *adversary.SlowSetOver:
			adv = a.Inner
		default:
			adv = nil
		}
	}
	return false
}

// TestDelaysContract checks sim.Adversary.Delays for every registered
// adversary and three compositions: a uniform return lies in [1, D()],
// leaves out untouched and drops nothing; a fill puts a delay in
// [1, D()] or sim.Omitted in every recipient slot, Omitted exactly for
// the copies an omission window (restricted to its To recipients) covers;
// every kept copy's delay is the one the bare leaf adversary answers,
// so wrappers consume an inner random stream exactly as the bare
// adversary does; and a non-uniform leaf (random) makes every wrapper
// fill.
func TestDelaysContract(t *testing.T) {
	const p = 7
	base := scenario.Scenario{P: p, T: 60, D: 4, Seed: 9}
	type tc struct{ expr, bare string }
	var cases []tc
	for _, name := range scenario.Adversaries() {
		bare, ok := bareOf[name]
		if !ok {
			t.Fatalf("registered adversary %q has no bareOf entry", name)
		}
		cases = append(cases, tc{name, bare})
	}
	cases = append(cases,
		tc{"crashing(omitting(random))", "random"},
		tc{"restarting(omitting(fair,to=0,to=2,to=5))", "fair"},
		tc{"slow-set(crashing(random))", "random"},
	)
	for _, c := range cases {
		build := func(expr string) sim.Adversary {
			sc := base
			sc.Adversary = expr
			adv, err := sc.BuildAdversary()
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			return adv
		}
		adv, bare := build(c.expr), build(c.bare)
		d := adv.D()
		out, bareOut := make([]int64, p), make([]int64, p)
		omissions := 0
		for sentAt := int64(0); sentAt < 24; sentAt++ {
			for from := 0; from < p; from++ {
				clear(out)
				clear(bareOut)
				dl, bareDl := adv.Delays(from, sentAt, out), bare.Delays(from, sentAt, bareOut)
				if c.bare == "random" && dl != 0 {
					t.Fatalf("%s: uniform %d over a random leaf; want a fill", c.expr, dl)
				}
				for j := 0; j < p; j++ {
					if j == from {
						continue
					}
					want := bareDl
					if want == 0 {
						want = bareOut[j]
					}
					got := dl
					if dl == 0 {
						got = out[j]
					} else if out[j] != 0 {
						t.Fatalf("%s: uniform return wrote out[%d] = %d", c.expr, j, out[j])
					}
					if dropped(adv, from, j, sentAt) {
						want = sim.Omitted
						omissions++
					}
					if got != want {
						t.Fatalf("%s: from %d at %d, copy to %d: delay %d, want %d", c.expr, from, sentAt, j, got, want)
					}
					if got != sim.Omitted && (got < 1 || got > d) {
						t.Fatalf("%s: delay %d outside [1,%d]", c.expr, got, d)
					}
				}
			}
		}
		if drops := strings.Contains(c.expr, "omitting"); drops != (omissions > 0) {
			t.Fatalf("%s: %d copies omitted; want some: %v", c.expr, omissions, drops)
		}
	}
}

// TestSlowSetAllSlowFastForwards checks the NextWake promise: with every
// processor slow, off-period decisions must announce the next period
// boundary so the engine can skip the idle units.
func TestSlowSetAllSlowFastForwards(t *testing.T) {
	a := adversary.NewSlowSet(2, []int{0, 1}, 10)
	v := &sim.View{Now: 3, P: 2, Crashed: make([]bool, 2), Halted: make([]bool, 2)}
	var dec sim.Decision
	a.Schedule(v, &dec)
	if len(dec.Active) != 0 {
		t.Fatalf("off-period schedule activated %v", dec.Active)
	}
	if dec.NextWake != 10 {
		t.Fatalf("NextWake = %d, want 10", dec.NextWake)
	}
	v.Now = 10
	dec = sim.Decision{}
	a.Schedule(v, &dec)
	if len(dec.Active) != 2 {
		t.Fatalf("on-period schedule = %v, want both", dec.Active)
	}
}

package sim

import (
	"reflect"
	"testing"
)

// pingMachine 0 broadcasts once at t=0 and then idles; every other
// pingMachine performs task 0 the first time it sees the ping and records
// when the delivery arrived and when it was consumed.
type pingMachine struct {
	pid        int
	gotAt      int64 // DeliverAt of the ping, -1 until seen
	consumedAt int64 // step time that consumed it, -1 until then
	done       bool
}

func (m *pingMachine) Step(now int64, inbox []Delivery) StepResult {
	for _, d := range inbox {
		if d.Payload() == "ping" {
			m.gotAt = d.DeliverAt()
			m.consumedAt = now
			m.done = true
		}
	}
	if m.pid == 0 {
		if now == 0 {
			m.done = true
			return StepResult{Broadcast: "ping"}
		}
		return StepResult{Halt: m.done}
	}
	if m.done {
		r := PerformStep(0)
		r.Halt = true
		return r
	}
	return StepResult{}
}

func (m *pingMachine) KnowsAllDone() bool { return m.done }

// wakeAdv activates everyone at t=0, then promises idleness until wake,
// then activates everyone again. Its delay is fixed, so the broadcast's
// delivery instant and the wake-up instant can be arranged on either side
// of each other — or on the same instant.
type wakeAdv struct {
	d, fix, wake int64
}

func (a *wakeAdv) D() int64 { return a.d }
func (a *wakeAdv) Schedule(v *View, dec *Decision) {
	if v.Now > 0 && v.Now < a.wake {
		dec.NextWake = a.wake
		return
	}
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}
func (a *wakeAdv) Delays(from int, sentAt int64, out []int64) int64 { return a.fix }

// TestNextWakeVsDeliveryInstant pins the interaction between the
// Decision.NextWake fast-forward and wheel.nextDue at the fast-forward
// target: the wake-up landing before, exactly on, or after the delivery
// instant must all reproduce the legacy engine's unit-by-unit execution
// exactly. The same-instant case is the delicate one — the jump must not
// skip the delivery that becomes due on the very unit the adversary wakes
// (deliveries precede scheduling within a tick), and symmetric ordering
// (delivery due before the wake) must cut the jump short so the message
// enters the inbox at its exact delivery time.
func TestNextWakeVsDeliveryInstant(t *testing.T) {
	const p = 3
	cases := []struct {
		name      string
		fix, wake int64
	}{
		{"wake-before-delivery", 9, 5},    // wake at 5, delivery due 9
		{"same-instant", 7, 7},            // both land on unit 7
		{"delivery-before-wake", 4, 11},   // delivery due 4, wake at 11
		{"wake-one-after-delivery", 6, 7}, // adjacent instants, both orders
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() ([]Machine, *wakeAdv) {
				ms := make([]Machine, p)
				for i := range ms {
					ms[i] = &pingMachine{pid: i, gotAt: -1, consumedAt: -1}
				}
				return ms, &wakeAdv{d: 16, fix: tc.fix, wake: tc.wake}
			}

			msN, advN := build()
			fresh, errN := Run(Config{P: p, T: 1}, msN, advN)
			msL, advL := build()
			legacy, errL := RunLegacy(Config{P: p, T: 1}, msL, advL)
			if (errN == nil) != (errL == nil) {
				t.Fatalf("error mismatch: new=%v legacy=%v", errN, errL)
			}
			if !reflect.DeepEqual(fresh, legacy) {
				t.Fatalf("Result diverged:\nnew:    %+v\nlegacy: %+v", fresh, legacy)
			}

			// The delivery must land exactly at its due instant and be
			// consumed at the first activation on or after it.
			wantGot := tc.fix // broadcast sent at 0, delay fix
			wantConsumed := wantGot
			if tc.wake > wantConsumed {
				wantConsumed = tc.wake
			}
			for i := 1; i < p; i++ {
				m := msN[i].(*pingMachine)
				if m.gotAt != wantGot {
					t.Errorf("machine %d: ping delivered at %d, want %d", i, m.gotAt, wantGot)
				}
				if m.consumedAt != wantConsumed {
					t.Errorf("machine %d: ping consumed at %d, want %d", i, m.consumedAt, wantConsumed)
				}
			}
			if !fresh.Solved || fresh.SolvedAt != wantConsumed {
				t.Errorf("SolvedAt = %d (solved=%v), want %d", fresh.SolvedAt, fresh.Solved, wantConsumed)
			}
		})
	}
}

// TestEngineReuseAcrossRuns pins the reusable-trial contract: one Engine
// re-running fresh machine sets — same shape, different shapes, back and
// forth — produces exactly the Results of fresh package-level Runs.
func TestEngineReuseAcrossRuns(t *testing.T) {
	shapes := []struct {
		p, t int
		d    int64
	}{
		{4, 16, 2}, {4, 16, 2}, {7, 31, 5}, {2, 8, 1}, {4, 16, 2},
	}
	eng := NewEngine()
	for i, sh := range shapes {
		mkMachines := func() []Machine {
			ms := make([]Machine, sh.p)
			for j := range ms {
				ms[j] = newSeqMachineAt(sh.t, j*sh.t/sh.p)
			}
			return ms
		}
		want, errW := Run(Config{P: sh.p, T: sh.t}, mkMachines(), &fixedAdv{d: sh.d, fix: sh.d})
		got, errG := eng.Run(Config{P: sh.p, T: sh.t}, mkMachines(), &fixedAdv{d: sh.d, fix: sh.d})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("run %d: error mismatch: %v vs %v", i, errW, errG)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d (p=%d t=%d d=%d): reused engine diverged:\nfresh:  %+v\nreused: %+v",
				i, sh.p, sh.t, sh.d, want, got)
		}
	}
}

// TestEngineReuseAfterStepCap ensures a run that ends at the step cap
// (messages still in flight, machines mid-execution) leaves the engine
// reusable: the next run must be unaffected.
func TestEngineReuseAfterStepCap(t *testing.T) {
	eng := NewEngine()
	capped := []Machine{&idleMachine{}, &idleMachine{}}
	if _, err := eng.Run(Config{P: 2, T: 1, MaxSteps: 20}, capped, &fixedAdv{d: 3, fix: 3}); err == nil {
		t.Fatal("idle machines unexpectedly solved")
	}
	ms := []Machine{newSeqMachine(6), newSeqMachine(6)}
	want, err := Run(Config{P: 2, T: 6}, []Machine{newSeqMachine(6), newSeqMachine(6)}, &fixedAdv{d: 3, fix: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(Config{P: 2, T: 6}, ms, &fixedAdv{d: 3, fix: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-cap reuse diverged:\nfresh:  %+v\nreused: %+v", want, got)
	}
}

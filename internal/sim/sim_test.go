package sim

import (
	"errors"
	"testing"
)

// seqMachine performs the t tasks in cyclic order starting at a
// pid-dependent offset, one per step, broadcasting after each, and halts
// when it believes all t tasks are done. It trusts received payloads of
// type int (a task id) as "done" news.
type seqMachine struct {
	t    int
	off  int
	next int // tasks attempted (index into the cyclic order)
	done []bool
	left int
}

func newSeqMachine(t int) *seqMachine { return newSeqMachineAt(t, 0) }

func newSeqMachineAt(t, off int) *seqMachine {
	return &seqMachine{t: t, off: off % t, done: make([]bool, t), left: t}
}

func (m *seqMachine) Step(now int64, inbox []Delivery) StepResult {
	for _, msg := range inbox {
		if z, ok := msg.Payload().(int); ok && !m.done[z] {
			m.done[z] = true
			m.left--
		}
	}
	for m.next < m.t && m.done[(m.off+m.next)%m.t] {
		m.next++
	}
	if m.left == 0 {
		return StepResult{Halt: true}
	}
	if m.next >= m.t {
		return StepResult{} // idle; waiting for news
	}
	z := (m.off + m.next) % m.t
	m.done[z] = true
	m.left--
	m.next++
	r := StepResult{Broadcast: z, Halt: m.left == 0}
	r.Perform(z)
	return r
}

func (m *seqMachine) KnowsAllDone() bool { return m.left == 0 }

// fixedAdv: everyone steps each unit, delay exactly fix.
type fixedAdv struct {
	d, fix int64
}

func (a *fixedAdv) D() int64 { return a.d }
func (a *fixedAdv) Schedule(v *View, dec *Decision) {
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}
func (a *fixedAdv) Delays(from int, sentAt int64, out []int64) int64 { return a.fix }

func TestSingleProcessorSolves(t *testing.T) {
	ms := []Machine{newSeqMachine(5)}
	res, err := Run(Config{P: 1, T: 5}, ms, &fixedAdv{d: 1, fix: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	// 5 steps perform 5 tasks; the 5th step also halts knowing all done.
	if res.Work != 5 {
		t.Fatalf("Work = %d, want 5", res.Work)
	}
	if res.SolvedAt != 4 {
		t.Fatalf("SolvedAt = %d, want 4", res.SolvedAt)
	}
	if res.Messages != 0 {
		// Single processor: broadcast goes to zero recipients.
		t.Fatalf("Messages = %d, want 0", res.Messages)
	}
	if res.HaltedEarly {
		t.Fatal("halt at completion flagged as early")
	}
}

func TestTwoProcessorsShareWork(t *testing.T) {
	// Two seq machines starting at opposite offsets with delay 1: news
	// flows quickly, so each skips most of the other's half.
	ms := []Machine{newSeqMachineAt(10, 0), newSeqMachineAt(10, 5)}
	res, err := Run(Config{P: 2, T: 10}, ms, &fixedAdv{d: 1, fix: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	if res.Work >= 20 {
		t.Fatalf("Work = %d, expected sharing to beat oblivious 20", res.Work)
	}
	if res.TaskExecutions < 10 {
		t.Fatalf("TaskExecutions = %d < t", res.TaskExecutions)
	}
	if res.PrimaryExecutions < 10 {
		t.Fatalf("PrimaryExecutions = %d < t (each task first-performed once)", res.PrimaryExecutions)
	}
	if res.PrimaryExecutions+res.SecondaryExecutions != res.TaskExecutions {
		t.Fatal("primary + secondary ≠ total executions")
	}
}

func TestWorkStopsAccruingAtSolved(t *testing.T) {
	// One fast solver and one processor that never performs tasks: after σ
	// the idler's steps must not count toward Work but do count toward
	// TotalSteps.
	ms := []Machine{newSeqMachine(3), newSeqMachine(3)}
	res, err := Run(Config{P: 2, T: 3}, ms, &fixedAdv{d: 5, fix: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps < res.Work {
		t.Fatalf("TotalSteps %d < Work %d", res.TotalSteps, res.Work)
	}
}

func TestMessageAccounting(t *testing.T) {
	// P processors, each broadcast costs P-1 point-to-point messages.
	p := 4
	ms := make([]Machine, p)
	for i := range ms {
		ms[i] = newSeqMachine(2)
	}
	res, err := Run(Config{P: p, T: 2}, ms, &fixedAdv{d: 2, fix: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages%int64(p-1) != 0 {
		t.Fatalf("Messages = %d not a multiple of p-1 = %d", res.Messages, p-1)
	}
	if res.Messages == 0 {
		t.Fatal("expected some messages")
	}
}

func TestDelayRespected(t *testing.T) {
	// With a huge delay, two seq machines can't coordinate: both perform
	// all tasks (work = 2t at least until one finishes).
	tt := 6
	ms := []Machine{newSeqMachine(tt), newSeqMachine(tt)}
	res, err := Run(Config{P: 2, T: tt}, ms, &fixedAdv{d: 100, fix: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work != int64(2*tt) {
		t.Fatalf("Work = %d, want %d (no effective communication)", res.Work, 2*tt)
	}
	if res.SecondaryExecutions != 0 && res.PrimaryExecutions != int64(2*tt)-res.SecondaryExecutions {
		t.Fatal("execution accounting inconsistent")
	}
}

func TestStepCapReturnsError(t *testing.T) {
	// A machine that never performs anything can't solve Do-All.
	idler := &idleMachine{}
	_, err := Run(Config{P: 1, T: 1, MaxSteps: 50}, []Machine{idler}, &fixedAdv{d: 1, fix: 1})
	if !errors.Is(err, ErrStepCap) {
		t.Fatalf("err = %v, want ErrStepCap", err)
	}
}

type idleMachine struct{}

func (m *idleMachine) Step(now int64, inbox []Delivery) StepResult { return StepResult{} }
func (m *idleMachine) KnowsAllDone() bool                          { return false }

func TestCrashedProcessorsTakeNoSteps(t *testing.T) {
	ms := []Machine{newSeqMachine(4), newSeqMachine(4)}
	adv := &crashAdv{fixedAdv: fixedAdv{d: 1, fix: 1}, crashAt: 0, victim: 1}
	res, err := Run(Config{P: 2, T: 4}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerProcWork[1] != 0 {
		t.Fatalf("crashed processor did %d steps", res.PerProcWork[1])
	}
	if !res.Solved {
		t.Fatal("survivor did not solve")
	}
}

type crashAdv struct {
	fixedAdv
	crashAt int64
	victim  int
}

func (a *crashAdv) Schedule(v *View, dec *Decision) {
	a.fixedAdv.Schedule(v, dec)
	if v.Now == a.crashAt {
		dec.Crash = append(dec.Crash, a.victim)
	}
}

func TestHaltedEarlyDetection(t *testing.T) {
	// A machine that halts immediately without doing anything violates
	// Proposition 2.1 and must be flagged.
	quitter := &quitMachine{}
	worker := newSeqMachine(2)
	res, err := Run(Config{P: 2, T: 2}, []Machine{quitter, worker}, &fixedAdv{d: 1, fix: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaltedEarly {
		t.Fatal("early halt not detected")
	}
}

type quitMachine struct{}

func (m *quitMachine) Step(now int64, inbox []Delivery) StepResult { return StepResult{Halt: true} }
func (m *quitMachine) KnowsAllDone() bool                          { return false }

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		ms := []Machine{newSeqMachine(8), newSeqMachine(8), newSeqMachine(8)}
		res, err := Run(Config{P: 3, T: 8}, ms, &fixedAdv{d: 3, fix: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Work != b.Work || a.Messages != b.Messages || a.SolvedAt != b.SolvedAt {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// badAdv answers every broadcast with the uniform delay uniform, or, when
// fill is set, with a fill whose last recipient slot holds bad and every
// other slot a valid delay of 1.
type badAdv struct {
	uniform, bad int64
	fill         bool
}

func (a *badAdv) D() int64 { return 2 }
func (a *badAdv) Schedule(v *View, dec *Decision) {
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}
func (a *badAdv) Delays(from int, sentAt int64, out []int64) int64 {
	if !a.fill {
		return a.uniform
	}
	last := len(out) - 1
	if from == last {
		last--
	}
	for j := range out {
		if j != from {
			out[j] = 1
		}
	}
	out[last] = a.bad
	return 0
}

// TestBadDelayPanics checks that both engines reject every answer outside
// the contract — a uniform return or a filled slot that is neither a
// delay in [1, d] nor (for a slot) the Omitted marker.
func TestBadDelayPanics(t *testing.T) {
	engines := []struct {
		name string
		run  func(Config, []Machine, Adversary) (*Result, error)
	}{{"Run", Run}, {"RunLegacy", RunLegacy}}
	advs := []struct {
		name string
		adv  badAdv
	}{
		{"uniform 0 without a fill", badAdv{uniform: 0}},
		{"uniform d+1", badAdv{uniform: 3}},
		{"uniform Omitted", badAdv{uniform: Omitted}},
		{"slot 0", badAdv{fill: true, bad: 0}},
		{"slot d+1", badAdv{fill: true, bad: 3}},
		{"slot -2", badAdv{fill: true, bad: -2}},
	}
	for _, e := range engines {
		for _, a := range advs {
			t.Run(e.name+"/"+a.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic for delay outside [1,d]")
					}
				}()
				adv := a.adv
				ms := []Machine{newSeqMachine(2), newSeqMachine(2), newSeqMachine(2)}
				_, _ = e.run(Config{P: 3, T: 2}, ms, &adv)
			})
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{P: 2, T: 1}, []Machine{newSeqMachine(1)}, &fixedAdv{d: 1, fix: 1}); err == nil {
		t.Fatal("machine count mismatch accepted")
	}
	if _, err := Run(Config{P: 0, T: 1}, nil, &fixedAdv{d: 1, fix: 1}); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := Run(Config{P: 1, T: 1}, []Machine{newSeqMachine(1)}, &fixedAdv{d: 0, fix: 0}); err == nil {
		t.Fatal("d=0 accepted")
	}
}

func TestDelayQueueOrdering(t *testing.T) {
	q := newDelayQueue()
	q.push(Message{From: 0, To: 1, DeliverAt: 5, Payload: "a"})
	q.push(Message{From: 0, To: 1, DeliverAt: 3, Payload: "b"})
	q.push(Message{From: 0, To: 1, DeliverAt: 5, Payload: "c"})
	if got := q.popDue(2); len(got) != 0 {
		t.Fatalf("popDue(2) = %v, want empty", got)
	}
	got := q.popDue(5)
	if len(got) != 3 {
		t.Fatalf("popDue(5) returned %d messages, want 3", len(got))
	}
	if got[0].Payload != "b" || got[1].Payload != "a" || got[2].Payload != "c" {
		t.Fatalf("wrong order: %v %v %v", got[0].Payload, got[1].Payload, got[2].Payload)
	}
	if q.len() != 0 {
		t.Fatal("queue not drained")
	}
}

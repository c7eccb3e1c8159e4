package adversary

import (
	"cmp"
	"math"
	"slices"

	"doall/internal/sim"
)

// stageClock tracks the stage structure shared by the two lower-bound
// adversaries: computation is partitioned into stages of length
// L = max(1, min(d, t/6)) time units, and every message sent during a
// stage is delivered at the stage boundary (Theorem 3.1's "the adversary
// delivers all messages sent in stage s at the end of stage s").
type stageClock struct {
	L int64
}

func newStageClock(d int64, t int) stageClock {
	l := d
	if int64(t/6) < l {
		l = int64(t / 6)
	}
	if l < 1 {
		l = 1
	}
	return stageClock{L: l}
}

// stage returns the stage index containing time now.
func (c stageClock) stage(now int64) int64 { return now / c.L }

// stageStart reports whether now is the first tick of its stage.
func (c stageClock) stageStart(now int64) bool { return now%c.L == 0 }

// delayToStageEnd returns the delay that makes a message sent at sentAt
// arrive exactly at the next stage boundary. It is always in [1, L] ⊆ [1, d].
func (c stageClock) delayToStageEnd(sentAt int64) int64 {
	end := (c.stage(sentAt) + 1) * c.L
	return end - sentAt
}

// maxAdversarialStages returns the number of stages the Theorem 3.1/3.4
// constructions can sustain: roughly log_{base}(t) with base = 3L (det) or
// L+1 (randomized). After that many stages the adversary turns benign so
// the execution terminates.
func maxAdversarialStages(t int, base float64) int64 {
	if base < 2 {
		base = 2
	}
	return int64(math.Ceil(math.Log(float64(t)+1) / math.Log(base)))
}

// stageSelect chooses a stage's protected set J_s for both lower-bound
// adversaries: the k undone tasks with the lowest count (look-ahead
// coverage or intent), ties broken by task id — ascending, or descending
// with desc. Count then id is a strict total order, so the set is unique.
// Only the c tasks some processor performs in the look-ahead or intends
// have a nonzero count (c ≤ p·L or p), so the zero-count tasks are taken
// straight off the ledger in tie order, and the counted tasks are sorted
// only when the zero-count ones do not fill k: a stage costs
// O(u + c log c) for u undone tasks. Every array is reused across stages.
type stageSelect struct {
	count   []int32 // count[z]; nonzero only for tasks listed in touched
	touched []int32 // undone tasks with a nonzero count
	in      []bool  // in[z] reports z ∈ J_s
	n       int     // |J_s|
}

// begin clears the previous stage's counts and protected set for a
// ledger of t tasks.
func (s *stageSelect) begin(t int) {
	if len(s.count) != t {
		s.count = make([]int32, t)
		s.in = make([]bool, t)
	} else {
		for _, z := range s.touched {
			s.count[z] = 0
		}
		clear(s.in)
	}
	s.touched = s.touched[:0]
	s.n = 0
}

// add counts one more coverage or intent of undone task z.
func (s *stageSelect) add(z int) {
	if s.count[z] == 0 {
		s.touched = append(s.touched, int32(z))
	}
	s.count[z]++
}

// pick protects the k lowest-count undone tasks (all of them when k ≥ u).
func (s *stageSelect) pick(tasks *sim.TaskLedger, k int, desc bool) {
	k = min(k, tasks.Undone())
	zeros := tasks.Undone() - len(s.touched)
	take := min(k, zeros)
	// In descending tie order the chosen zero-count tasks are the last
	// take of them; skip the rest.
	skip := 0
	if desc {
		skip = zeros - take
	}
	for z := tasks.NextUndone(0); z >= 0 && take > 0; z = tasks.NextUndone(z + 1) {
		if s.count[z] != 0 {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		s.in[z] = true
		take--
	}
	if k > zeros {
		slices.SortFunc(s.touched, func(x, y int32) int {
			if c := cmp.Compare(s.count[x], s.count[y]); c != 0 {
				return c
			}
			if desc {
				return cmp.Compare(y, x)
			}
			return cmp.Compare(x, y)
		})
		for _, z := range s.touched[:k-zeros] {
			s.in[z] = true
		}
	}
	s.n = k
}

// StageDeterministic is the off-line adversary from the proof of Theorem
// 3.1, applicable to deterministic algorithms whose machines implement
// sim.Cloner. At the start of each stage it clones every live machine and
// runs the clones one stage ahead (with the machine's current inbox and no
// further deliveries — exactly what the real machines will experience,
// because all mid-stage messages are held to the stage boundary). From the
// look-ahead sets J_s(i) it picks, by the pigeonhole argument, a set J_s of
// ≈ u_s/(3L) low-coverage tasks and delays every processor that would touch
// J_s for the entire stage. This forces u_{s+1} ≥ u_s/(3L) while ≥ p/3
// processors run undelayed, yielding work Ω(p·min{d,t}·log_{d+1}(d+t)).
// J_s is the lowest-coverage undone tasks with ties to lower ids (coverage
// counts a processor's repeat performances), chosen by stageSelect in
// O(u + pL log pL) per stage beyond the look-ahead itself.
type StageDeterministic struct {
	Bound int64
	T     int
	clock stageClock
	// maxStages caps adversarial stages so executions terminate.
	maxStages int64
	// delayed[i] reports that processor i is delayed for the current stage.
	delayed  []bool
	curStage int64
	sel      stageSelect
	// look holds the look-ahead sets J_s(i) back to back: processor i's
	// undone performed tasks are look[start[i]:start[i+1]] (at most L,
	// repeats kept).
	look  []int32
	start []int
	// Stages counts adversarial stages actually executed (for reporting).
	Stages int64
}

var _ sim.Adversary = (*StageDeterministic)(nil)

// NewStageDeterministic builds the Theorem 3.1 adversary for t tasks and
// delay bound d.
func NewStageDeterministic(d int64, t int) *StageDeterministic {
	c := newStageClock(d, t)
	return &StageDeterministic{
		Bound:     d,
		T:         t,
		clock:     c,
		maxStages: maxAdversarialStages(t, 3*float64(c.L)),
		curStage:  -1,
	}
}

// D implements sim.Adversary.
func (a *StageDeterministic) D() int64 { return a.Bound }

// Delays implements sim.Adversary: hold messages to the stage boundary,
// which every recipient of a multicast shares.
func (a *StageDeterministic) Delays(from int, sentAt int64, out []int64) int64 {
	return a.clock.delayToStageEnd(sentAt)
}

// Schedule implements sim.Adversary. When the construction has delayed
// every live processor for the rest of the stage, the decision promises
// idleness until the stage boundary so the engine can fast-forward.
func (a *StageDeterministic) Schedule(v *sim.View, dec *sim.Decision) {
	if len(a.delayed) != v.P {
		a.delayed = make([]bool, v.P)
	}
	st := a.clock.stage(v.Now)
	if st != a.curStage && a.clock.stageStart(v.Now) {
		a.curStage = st
		a.planStage(v)
	}
	for i := 0; i < v.P; i++ {
		if !a.delayed[i] && !v.Crashed[i] && !v.Halted[i] {
			dec.Active = append(dec.Active, i)
		}
	}
	if len(dec.Active) == 0 {
		dec.NextWake = (a.clock.stage(v.Now) + 1) * a.clock.L
	}
}

// planStage performs the look-ahead and chooses the delayed set.
func (a *StageDeterministic) planStage(v *sim.View) {
	for i := range a.delayed {
		a.delayed[i] = false
	}
	// Turn benign once the construction can no longer sustain itself:
	// either the stage budget is exhausted or u < 3L (the pigeonhole set
	// J_s would be empty).
	if a.curStage >= a.maxStages || int64(v.Undone()) < 3*a.clock.L {
		return
	}
	a.Stages++

	// Look ahead: J_s(i) = tasks processor i would perform this stage.
	// Coverage counts every performance, a processor's repeats included.
	a.sel.begin(v.Tasks.Len())
	a.look = a.look[:0]
	a.start = a.start[:0]
	for i := 0; i < v.P; i++ {
		a.start = append(a.start, len(a.look))
		if v.Crashed[i] || v.Halted[i] {
			continue
		}
		cl, ok := v.Machines[i].(sim.Cloner)
		if !ok {
			// Machine not cloneable: leave it undelayed (conservative —
			// weakens, never invalidates, the adversary).
			continue
		}
		m := cl.CloneMachine()
		if m == nil {
			continue // cloning unsupported at runtime (e.g. PaRan2)
		}
		inbox := append([]sim.Delivery(nil), v.Inbox(i)...)
		for k := int64(0); k < a.clock.L; k++ {
			r := m.Step(v.Now+k, inbox)
			inbox = nil
			if z := r.PerformedTask(); z >= 0 && !v.Tasks.Done(z) {
				a.look = append(a.look, int32(z))
				a.sel.add(z)
			}
			if r.Halt {
				break
			}
		}
	}
	a.start = append(a.start, len(a.look))

	// Pigeonhole: protect the ⌈u/(3L)⌉ undone tasks with the lowest
	// coverage, ties to lower ids.
	a.sel.pick(v.Tasks, max(1, int(int64(v.Undone())/(3*a.clock.L))), false)

	// Delay every processor whose look-ahead set intersects J_s.
	for i := 0; i < v.P; i++ {
		for _, z := range a.look[a.start[i]:a.start[i+1]] {
			if a.sel.in[z] {
				a.delayed[i] = true
				break
			}
		}
	}
}

// StageOnline is the adaptive adversary from the proof of Theorem 3.4,
// applicable to any algorithm whose machines implement sim.TaskIntender
// (randomized machines commit to their next task choice, which the
// adaptive adversary may observe). At each stage start it selects a
// protected set J_s of ≈ u/(L+1) undone tasks; during the stage, the
// moment a processor's next intended task lies in J_s the processor is
// delayed to the stage boundary. Lemma 3.3 guarantees that w.h.p. at
// least p/64 processors run undelayed while all of J_s survives the
// stage, forcing expected work Ω(p·min{d,t}·log_{d+1}(d+t)). J_s is the
// least-intended undone tasks with ties to higher ids, chosen by
// stageSelect in O(u + p log p) per stage; Schedule tests each intent
// against it in O(1).
type StageOnline struct {
	Bound     int64
	T         int
	clock     stageClock
	maxStages int64
	sel       stageSelect // J_s, empty while benign
	delayed   []bool
	curStage  int64
	// Stages counts adversarial stages actually executed.
	Stages int64
}

var _ sim.Adversary = (*StageOnline)(nil)

// NewStageOnline builds the Theorem 3.4 adversary for t tasks and delay
// bound d.
func NewStageOnline(d int64, t int) *StageOnline {
	c := newStageClock(d, t)
	return &StageOnline{
		Bound:     d,
		T:         t,
		clock:     c,
		maxStages: maxAdversarialStages(t, float64(c.L)+1),
		curStage:  -1,
	}
}

// D implements sim.Adversary.
func (a *StageOnline) D() int64 { return a.Bound }

// Delays implements sim.Adversary: hold messages to the stage boundary.
func (a *StageOnline) Delays(from int, sentAt int64, out []int64) int64 {
	return a.clock.delayToStageEnd(sentAt)
}

// Schedule implements sim.Adversary.
func (a *StageOnline) Schedule(v *sim.View, dec *sim.Decision) {
	if len(a.delayed) != v.P {
		a.delayed = make([]bool, v.P)
	}
	st := a.clock.stage(v.Now)
	if st != a.curStage && a.clock.stageStart(v.Now) {
		a.curStage = st
		a.planStage(v)
	}
	for i := 0; i < v.P; i++ {
		if a.delayed[i] || v.Crashed[i] || v.Halted[i] {
			continue
		}
		// Adaptive rule: delay i the moment it intends a protected task.
		if a.sel.n > 0 {
			if ti, ok := v.Machines[i].(sim.TaskIntender); ok {
				if z := ti.NextTask(); z >= 0 && a.sel.in[z] {
					a.delayed[i] = true
					continue
				}
			}
		}
		dec.Active = append(dec.Active, i)
	}
	if len(dec.Active) == 0 {
		// Everyone is delayed to the stage boundary: promise idleness so
		// the engine fast-forwards instead of ticking through the stage.
		dec.NextWake = (a.clock.stage(v.Now) + 1) * a.clock.L
	}
}

func (a *StageOnline) planStage(v *sim.View) {
	for i := range a.delayed {
		a.delayed[i] = false
	}
	a.sel.n = 0
	if a.curStage >= a.maxStages || int64(v.Undone()) < a.clock.L+1 {
		return
	}
	a.Stages++

	// Choose J_s: the ⌈u/(L+1)⌉ undone tasks currently intended by the
	// fewest processors (ties to higher ids, so the set is deterministic
	// given the intents).
	a.sel.begin(v.Tasks.Len())
	for i := 0; i < v.P; i++ {
		if v.Crashed[i] || v.Halted[i] {
			continue
		}
		if ti, ok := v.Machines[i].(sim.TaskIntender); ok {
			if z := ti.NextTask(); z >= 0 && !v.Tasks.Done(z) {
				a.sel.add(z)
			}
		}
	}
	a.sel.pick(v.Tasks, max(1, int(int64(v.Undone())/(a.clock.L+1))), true)
}

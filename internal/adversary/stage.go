package adversary

import (
	"math"
	"sort"

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
type StageDeterministic struct {
	Bound int64
	T     int
	clock stageClock
	// maxStages caps adversarial stages so executions terminate.
	maxStages int64
	// delayed[i] reports that processor i is delayed for the current stage.
	delayed  []bool
	curStage int64
	// Stages counts adversarial stages actually executed (for reporting).
	Stages int64
}

var (
	_ sim.Adversary        = (*StageDeterministic)(nil)
	_ sim.MulticastDelayer = (*StageDeterministic)(nil)
	_ sim.UniformDelayer   = (*StageDeterministic)(nil)
)

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

// Delay implements sim.Adversary: hold messages to the stage boundary.
func (a *StageDeterministic) Delay(from, to int, sentAt int64) int64 {
	return a.clock.delayToStageEnd(sentAt)
}

// DelayMulticast implements sim.MulticastDelayer: every recipient of a
// multicast shares the same stage-boundary delivery time.
func (a *StageDeterministic) DelayMulticast(from int, sentAt int64, out []int64) {
	d := a.clock.delayToStageEnd(sentAt)
	for j := range out {
		out[j] = d
	}
}

// DelayUniform implements sim.UniformDelayer.
func (a *StageDeterministic) DelayUniform(from int, sentAt int64) (int64, bool) {
	return a.clock.delayToStageEnd(sentAt), true
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
	cover := make(map[int]int, v.Undone()) // undone task -> #procs touching it
	sets := make([]map[int]bool, v.P)
	for i := 0; i < v.P; i++ {
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
		set := make(map[int]bool)
		inbox := append([]sim.Delivery(nil), v.Inbox(i)...)
		for k := int64(0); k < a.clock.L; k++ {
			r := m.Step(v.Now+k, inbox)
			inbox = nil
			if z := r.PerformedTask(); z >= 0 && !v.Tasks.Done(z) {
				set[z] = true
				cover[z]++
			}
			if r.Halt {
				break
			}
		}
		sets[i] = set
	}

	// Pigeonhole: pick the ⌈u/(3L)⌉ undone tasks with the lowest coverage.
	type tc struct{ z, c int }
	cand := make([]tc, 0, v.Undone())
	for z := v.Tasks.NextUndone(0); z >= 0; z = v.Tasks.NextUndone(z + 1) {
		cand = append(cand, tc{z, cover[z]})
	}
	sort.Slice(cand, func(x, y int) bool {
		if cand[x].c != cand[y].c {
			return cand[x].c < cand[y].c
		}
		return cand[x].z < cand[y].z
	})
	k := int(int64(v.Undone()) / (3 * a.clock.L))
	if k < 1 {
		k = 1
	}
	if k > len(cand) {
		k = len(cand)
	}
	protected := make(map[int]bool, k)
	for _, c := range cand[:k] {
		protected[c.z] = true
	}

	// Delay every processor whose look-ahead set intersects J_s.
	for i := 0; i < v.P; i++ {
		for z := range sets[i] {
			if protected[z] {
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
// stage, forcing expected work Ω(p·min{d,t}·log_{d+1}(d+t)).
type StageOnline struct {
	Bound     int64
	T         int
	clock     stageClock
	maxStages int64
	protected map[int]bool
	delayed   []bool
	curStage  int64
	// Stages counts adversarial stages actually executed.
	Stages int64
}

var (
	_ sim.Adversary        = (*StageOnline)(nil)
	_ sim.MulticastDelayer = (*StageOnline)(nil)
	_ sim.UniformDelayer   = (*StageOnline)(nil)
)

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

// Delay implements sim.Adversary.
func (a *StageOnline) Delay(from, to int, sentAt int64) int64 {
	return a.clock.delayToStageEnd(sentAt)
}

// DelayMulticast implements sim.MulticastDelayer.
func (a *StageOnline) DelayMulticast(from int, sentAt int64, out []int64) {
	d := a.clock.delayToStageEnd(sentAt)
	for j := range out {
		out[j] = d
	}
}

// DelayUniform implements sim.UniformDelayer.
func (a *StageOnline) DelayUniform(from int, sentAt int64) (int64, bool) {
	return a.clock.delayToStageEnd(sentAt), true
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
		if len(a.protected) > 0 {
			if ti, ok := v.Machines[i].(sim.TaskIntender); ok {
				if z := ti.NextTask(); z >= 0 && a.protected[z] {
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
	a.protected = nil
	if a.curStage >= a.maxStages || int64(v.Undone()) < a.clock.L+1 {
		return
	}
	a.Stages++

	// Choose J_s: the ⌈u/(L+1)⌉ undone tasks currently intended by the
	// fewest processors (ties to higher ids, so the set is deterministic
	// given the intents).
	intent := make(map[int]int)
	for i := 0; i < v.P; i++ {
		if v.Crashed[i] || v.Halted[i] {
			continue
		}
		if ti, ok := v.Machines[i].(sim.TaskIntender); ok {
			if z := ti.NextTask(); z >= 0 && !v.Tasks.Done(z) {
				intent[z]++
			}
		}
	}
	type tc struct{ z, c int }
	cand := make([]tc, 0, v.Undone())
	for z := v.Tasks.NextUndone(0); z >= 0; z = v.Tasks.NextUndone(z + 1) {
		cand = append(cand, tc{z, intent[z]})
	}
	sort.Slice(cand, func(x, y int) bool {
		if cand[x].c != cand[y].c {
			return cand[x].c < cand[y].c
		}
		return cand[x].z > cand[y].z
	})
	k := int(int64(v.Undone()) / (a.clock.L + 1))
	if k < 1 {
		k = 1
	}
	if k > len(cand) {
		k = len(cand)
	}
	a.protected = make(map[int]bool, k)
	for _, c := range cand[:k] {
		a.protected[c.z] = true
	}
}

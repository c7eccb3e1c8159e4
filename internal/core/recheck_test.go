package core

import (
	"testing"

	"doall/internal/perm"
	"doall/internal/sim"
)

// PA re-reads its current job's bit, and DA its top frame's Done bit,
// only after a step whose merge set a bit: the job or frame was undone
// when chosen and only a merge can finish it. These tests step a machine
// by hand next to a twin that re-checks every step, feed both the same
// merges, and compare them after every step.

// stepRecheck steps m on one step's deliveries. With always set it
// re-checks the current job (PA) or top frame (DA) whatever the merge
// learned, as the machines did before the skip.
func stepRecheck(m sim.Machine, batches []*sim.Batch, tail []sim.Delivery, always bool) sim.StepResult {
	if !always {
		return m.(sim.BatchConsumer).StepBatched(0, batches, tail)
	}
	switch m := m.(type) {
	case *PA:
		if len(batches) > 0 || len(tail) > 0 {
			m.remain -= m.merge(batches, tail)
		}
		return m.advance(true)
	case *DA:
		m.absorb(batches, tail)
		m.topUndone = false
		return m.advance()
	}
	panic("stepRecheck: not a PA or DA machine")
}

// midJob returns the job m is part-way through: PA's current job, or the
// leaf on top of DA's stack, when at least one of its tasks is performed.
func midJob(m sim.Machine) (int, bool) {
	switch m := m.(type) {
	case *PA:
		return m.cur, m.cur >= 0 && m.unit > 0
	case *DA:
		if n := len(m.stack); n > 0 && m.unit > 0 && m.tree.IsLeaf(m.stack[n-1].node) {
			return m.tree.LeafIndex(m.stack[n-1].node), true
		}
	}
	return -1, false
}

// plane returns m's knowledge plane.
func plane(m sim.Machine) *knowledge {
	switch m := m.(type) {
	case *PA:
		return &m.knowledge
	case *DA:
		return &m.knowledge
	}
	panic("plane: not a PA or DA machine")
}

// recheckDriver runs one subject and its re-checking twin on identical
// input. The peer is a machine of the same kind and shape whose
// snapshots carry the jobs the test finishes for it; they are sent from
// pid len(since)-1.
type recheckDriver struct {
	t          *testing.T
	subj, twin sim.Machine
	peer       sim.Machine
	jobs       Jobs
	since      []int64 // the peer's build watermark, as the engine keeps it
	steps      int
}

// step steps both machines on the same deliveries and fails unless their
// results, NextTask answers and done-sets agree.
func (d *recheckDriver) step(what string, batches []*sim.Batch, tail []sim.Delivery) sim.StepResult {
	d.t.Helper()
	got := stepRecheck(d.subj, batches, tail, false)
	want := stepRecheck(d.twin, batches, tail, true)
	d.steps++
	if got.PerformedTask() != want.PerformedTask() || got.Halt != want.Halt || (got.Broadcast == nil) != (want.Broadcast == nil) {
		d.t.Fatalf("step %d (%s): performed %d, halt %v, broadcast %v; the re-checking twin performed %d, halt %v, broadcast %v",
			d.steps, what, got.PerformedTask(), got.Halt, got.Broadcast != nil, want.PerformedTask(), want.Halt, want.Broadcast != nil)
	}
	if a, b := d.subj.(sim.TaskIntender).NextTask(), d.twin.(sim.TaskIntender).NextTask(); a != b {
		d.t.Fatalf("step %d (%s): NextTask %d, the re-checking twin's %d", d.steps, what, a, b)
	}
	if !plane(d.subj).vers.Bits().Equal(plane(d.twin).vers.Bits()) {
		d.t.Fatalf("step %d (%s): done-sets differ from the re-checking twin's", d.steps, what)
	}
	return got
}

// toMidJob steps without input until the subject is part-way through a
// job, and returns that job.
func (d *recheckDriver) toMidJob() int {
	d.t.Helper()
	for k := 0; k < 4*d.jobs.T; k++ {
		if j, ok := midJob(d.subj); ok {
			return j
		}
		d.step("idle", nil, nil)
	}
	d.t.Fatalf("step %d: the subject never got part-way through a job", d.steps)
	return -1
}

// finish has the peer finish job j and returns its snapshot, a multicast
// from the peer.
func (d *recheckDriver) finish(j int) *sim.Multicast {
	var payload any
	switch peer := d.peer.(type) {
	case *PA:
		peer.markDone(j)
		payload = peer.snapshot()
	case *DA:
		peer.tree.MarkLeaf(j)
		payload = peer.snapshot()
	}
	return &sim.Multicast{From: len(d.since) - 1, Payload: payload}
}

// completeMidJob gets the subject part-way through a job, then delivers
// the peer's news that the job is done by one kind of merge: "cache"
// applies a combined cache the peer built, "tail" merges a per-recipient
// delivery, and "snapshot" merges a batch without a cache, snapshot by
// snapshot. The subject must leave the job in that very step.
func (d *recheckDriver) completeMidJob(kind string) {
	d.t.Helper()
	j := d.toMidJob()
	mc := d.finish(j)
	var batches []*sim.Batch
	var tail []sim.Delivery
	switch kind {
	case "cache":
		b := &sim.Batch{MCs: []*sim.Multicast{mc}, Builder: -1}
		c := plane(d.peer).BuildCombined(b, d.since)
		if c == nil {
			d.t.Fatalf("step %d: the peer built no cache", d.steps)
		}
		b.Combined, b.Builder = c, int32(mc.From)
		batches = []*sim.Batch{b}
	case "tail":
		tail = []sim.Delivery{{MC: mc}}
	case "snapshot":
		batches = []*sim.Batch{{MCs: []*sim.Multicast{mc}, Builder: -1}}
	}
	r := d.step(kind, batches, tail)
	if z := r.PerformedTask(); z >= d.jobs.Start(j) && z < d.jobs.End(j) {
		d.t.Fatalf("step %d (%s): performed task %d of job %d, which the merge finished", d.steps, kind, z, j)
	}
	// The same news again sets no bit: the subject keeps its new job
	// without re-reading it.
	d.toMidJob()
	d.step(kind+" repeated", nil, []sim.Delivery{{MC: mc}})
}

// restart applies Rejoin or Reset to both machines part-way through a job.
// Either restarts DA at the root of an empty replica, which is undone, so
// a top-frame skip left set there would change no step: the test checks
// that none is left.
func (d *recheckDriver) restart(rejoin bool) {
	d.t.Helper()
	d.toMidJob()
	for _, m := range []sim.Machine{d.subj, d.twin} {
		if rejoin {
			m.(sim.Rejoiner).Rejoin()
		} else {
			m.(sim.Resetter).Reset()
		}
	}
	clear(d.since) // the engine zeroes the watermarks on every revive
	if da, ok := d.subj.(*DA); ok && da.topUndone {
		d.t.Fatalf("step %d: Rejoin/Reset (rejoin=%v) left the top frame's Done check skipped", d.steps, rejoin)
	}
}

// toHalt steps without input until both machines halt.
func (d *recheckDriver) toHalt() {
	d.t.Helper()
	for k := 0; k < 4*d.jobs.T; k++ {
		if d.step("idle", nil, nil).Halt {
			return
		}
	}
	d.t.Fatalf("step %d: the subject never halted", d.steps)
}

// TestMidJobMergeMatchesRecheck steps PaRan1, PaDet and DA (q = 2 and
// q = 3) with eight jobs of eight tasks. Each of the three merge kinds
// finishes the subject's current job or leaf mid-job, before and after a
// Rejoin that lands mid-job, and once more after a Reset that does; each
// is then repeated, a merge that sets no bit. After every step the
// subject's result, NextTask and done-set must equal the re-checking
// twin's.
func TestMidJobMergeMatchesRecheck(t *testing.T) {
	const p, tasks = 8, 64
	jobs := NewJobs(p, tasks)
	da := func(q int) func() []sim.Machine {
		return func() []sim.Machine {
			ms, err := NewDA(DAConfig{P: p, T: tasks, Q: q, Perms: perm.RotationList(q, q)})
			if err != nil {
				t.Fatal(err)
			}
			return ms
		}
	}
	cases := []struct {
		name  string
		build func() []sim.Machine
	}{
		{"PaRan1", func() []sim.Machine { return NewPaRan1(p, tasks, 5) }},
		{"PaDet", func() []sim.Machine {
			ms, err := NewPaDet(p, tasks, perm.RotationList(p, jobs.N))
			if err != nil {
				t.Fatal(err)
			}
			return ms
		}},
		{"DA-q2", da(2)},
		{"DA-q3", da(3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for pid := 0; pid < p; pid++ {
				// The peer is a third build's machine; its multicasts come
				// from pid p, outside the subject's pids.
				d := &recheckDriver{t: t, subj: c.build()[pid], twin: c.build()[pid], peer: c.build()[0], jobs: jobs, since: make([]int64, p+1)}
				d.completeMidJob("cache")
				d.completeMidJob("tail")
				d.completeMidJob("snapshot")
				d.restart(true)
				d.completeMidJob("tail")
				d.completeMidJob("snapshot")
				d.completeMidJob("cache")
				d.restart(false)
				d.completeMidJob("snapshot")
				d.toHalt()
			}
		})
	}
}

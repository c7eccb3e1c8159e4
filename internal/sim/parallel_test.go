package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// gossip is a BatchConsumer that keeps the tasks it knows are done as a
// bitmask (t ≤ 64), performs the first one it does not know of in a
// pid-rotated order, and broadcasts its whole mask. Its combined cache is
// the OR of a batch's masks. A machine with refuseOdd set declines to
// combine batches holding an odd number of multicasts, which leaves them
// for a later consumer to build, or for every consumer to merge one by
// one.
type gossip struct {
	pid, t    int
	refuseOdd bool
	known     uint64
	builds    int // caches built
	oddBuilds int // caches built for odd-sized batches
	refusals  int // BuildCombined calls answered with nil
	applied   int // published caches applied in steps
	recycled  int // own caches the engine handed back
}

// gossipCache is gossip's combined knowledge cache.
type gossipCache struct{ mask uint64 }

var (
	_ BatchConsumer   = (*gossip)(nil)
	_ PayloadRecycler = (*gossip)(nil)
)

func (m *gossip) Step(now int64, inbox []Delivery) StepResult {
	for _, d := range inbox {
		m.known |= d.Payload().(uint64)
	}
	all := uint64(1)<<m.t - 1
	for k := 0; k < m.t && m.known != all; k++ {
		if z := (3*m.pid + k) % m.t; m.known&(1<<z) == 0 {
			m.known |= 1 << z
			r := StepResult{Broadcast: m.known, Halt: m.known == all}
			r.Perform(z)
			return r
		}
	}
	return StepResult{Halt: true}
}

func (m *gossip) StepBatched(now int64, batches []*Batch, tail []Delivery) StepResult {
	for _, b := range batches {
		if c, ok := b.Combined.(*gossipCache); ok {
			m.known |= c.mask
			m.applied++
			continue
		}
		for _, mc := range b.MCs {
			if mc.From != m.pid {
				m.known |= mc.Payload.(uint64)
			}
		}
	}
	return m.Step(now, tail)
}

func (m *gossip) BuildCombined(b *Batch, _ []int64) any {
	if m.refuseOdd && len(b.MCs)%2 == 1 {
		m.refusals++
		return nil
	}
	c := &gossipCache{}
	for _, mc := range b.MCs {
		c.mask |= mc.Payload.(uint64)
	}
	m.builds++
	m.oddBuilds += len(b.MCs) % 2
	return c
}

func (m *gossip) RecyclePayload(p any) {
	if _, ok := p.(*gossipCache); ok {
		m.recycled++
	}
}

func (m *gossip) KnowsAllDone() bool { return m.known == uint64(1)<<m.t-1 }

// staggerAdv skips each processor every third unit and gives each
// broadcast a sender- and time-dependent uniform delay in [1, 3], so
// batches hold odd and even numbers of multicasts and consumers fall
// several batches behind one another.
type staggerAdv struct{}

func (staggerAdv) D() int64 { return 3 }
func (staggerAdv) Schedule(v *View, dec *Decision) {
	for i := 0; i < v.P; i++ {
		if (i+int(v.Now))%3 != 0 {
			dec.Active = append(dec.Active, i)
		}
	}
}
func (staggerAdv) Delays(from int, sentAt int64, out []int64) int64 {
	return 1 + (int64(from)+sentAt)%3
}

// TestMixedBatchConsumersMatchLegacy runs two BatchConsumer kinds in one
// run — even pids refuse to combine odd-sized batches, odd pids combine
// every batch — sequentially and at several shard counts. The engine
// must publish each cache from the first of the batch's senders that
// builds one, in batch order, when the batch forms, whatever the shard
// count: Results equal RunLegacy's (which never builds a cache), every
// machine's state equals the sequential run's, and every cache goes back
// to the machine that built it.
func TestMixedBatchConsumersMatchLegacy(t *testing.T) {
	const p, tasks = 7, 64
	run := func(engine func(Config, []Machine, Adversary) (*Result, error), shards int) (*Result, []gossip) {
		ms := make([]Machine, p)
		gs := make([]*gossip, p)
		for i := range ms {
			gs[i] = &gossip{pid: i, t: tasks, refuseOdd: i%2 == 0}
			ms[i] = gs[i]
		}
		res, err := engine(Config{P: p, T: tasks, Shards: shards}, ms, staggerAdv{})
		if err != nil {
			t.Fatal(err)
		}
		state := make([]gossip, p)
		for i, g := range gs {
			state[i] = *g
		}
		return res, state
	}
	legacy, _ := run(RunLegacy, 1)
	_, want := run(Run, 1)
	var builds, oddBuilds, refusals, applied int
	for i, g := range want {
		if g.recycled != g.builds {
			t.Fatalf("machine %d built %d caches, got %d back", i, g.builds, g.recycled)
		}
		builds += g.builds
		oddBuilds += g.oddBuilds
		refusals += g.refusals
		applied += g.applied
	}
	if builds == 0 || oddBuilds == 0 || refusals == 0 || applied <= builds {
		t.Fatalf("run does not exercise the contract: builds=%d oddBuilds=%d refusals=%d applied=%d",
			builds, oddBuilds, refusals, applied)
	}
	for _, shards := range []int{1, 2, 3, 7} {
		res, got := run(Run, shards)
		if !reflect.DeepEqual(res, legacy) {
			t.Fatalf("shards=%d: Result differs from RunLegacy:\n got  %+v\n want %+v", shards, res, legacy)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: machine state differs from the sequential run:\n got  %+v\n want %+v", shards, got, want)
		}
	}
}

// TestShardedRunReleasesWorkers checks that the package-level Run closes
// the engine it builds. A sharded engine parks shards-1 worker
// goroutines, and an engine left open keeps them, and through them all
// of its buffers, alive.
func TestShardedRunReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for k := 0; k < 10; k++ {
		const p, tasks = 8, 16
		ms := make([]Machine, p)
		for i := range ms {
			ms[i] = newSeqMachineAt(tasks, 2*i)
		}
		if _, err := Run(Config{P: p, T: tasks, Shards: 4}, ms, &fixedAdv{d: 2, fix: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Closed workers exit asynchronously.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after 10 sharded runs, %d before", n, base)
	}
}

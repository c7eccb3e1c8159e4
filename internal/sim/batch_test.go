package sim

import (
	"testing"
)

// batchFair is a uniform-delay, always-active adversary driving grouped
// delivery in tests.
type batchFair struct{ d int64 }

func (a *batchFair) D() int64 { return a.d }
func (a *batchFair) Schedule(v *View, dec *Decision) {
	for i := 0; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
}
func (a *batchFair) Delays(from int, sentAt int64, out []int64) int64 { return a.d }

// chatty is a plain (non-BatchConsumer) machine: every step it broadcasts
// its pid and counts every distinct message it received. Under the
// grouped engine its inbox is materialized from the shared batches; the
// counts must match the eager engine's exactly.
type chatty struct {
	pid      int
	steps    int
	received int
	own      int // own multicasts seen (must stay 0: senders skip their own)
	limit    int
}

func (m *chatty) Step(now int64, inbox []Delivery) StepResult {
	for _, d := range inbox {
		if d.From() == m.pid {
			m.own++
		}
		m.received++
	}
	m.steps++
	if m.steps >= m.limit {
		return StepResult{Halt: true}
	}
	return StepResult{Broadcast: m.pid}
}

func (m *chatty) KnowsAllDone() bool { return true }

// TestGroupedMaterializationMatchesEager runs plain machines (no
// BatchConsumer) under the grouped engine, sequential and sharded, and
// under the per-message reference engine (RunLegacy), checking the
// delivered message flow is identical — materialized batches must be
// indistinguishable from eager per-recipient delivery.
func TestGroupedMaterializationMatchesEager(t *testing.T) {
	run := func(engine func(Config, []Machine, Adversary) (*Result, error), shards int) []*chatty {
		const p = 5
		ms := make([]Machine, p)
		cs := make([]*chatty, p)
		for i := range ms {
			cs[i] = &chatty{pid: i, limit: 12}
			ms[i] = cs[i]
		}
		// The first machine performs every task so the run solves.
		ms[0] = &solver{chatty: cs[0]}
		if _, err := engine(Config{P: p, T: 1, Shards: shards}, ms, &batchFair{d: 2}); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	eager := run(RunLegacy, 1)
	for _, shards := range []int{1, 2, 3} {
		grouped := run(Run, shards)
		for i := range grouped {
			if grouped[i].own != 0 || eager[i].own != 0 {
				t.Fatalf("shards=%d: machine %d saw its own multicast (grouped=%d eager=%d)",
					shards, i, grouped[i].own, eager[i].own)
			}
			if grouped[i].received != eager[i].received || grouped[i].steps != eager[i].steps {
				t.Fatalf("shards=%d: machine %d: grouped received=%d steps=%d, eager received=%d steps=%d",
					shards, i, grouped[i].received, grouped[i].steps, eager[i].received, eager[i].steps)
			}
		}
	}
}

// solver wraps chatty and performs task 0 on its first step.
type solver struct{ *chatty }

func (s *solver) Step(now int64, inbox []Delivery) StepResult {
	r := s.chatty.Step(now, inbox)
	if s.chatty.steps == 1 {
		r.Perform(0)
	}
	return r
}

// countingConsumer implements BatchConsumer and records how it was fed.
// Unlike materialized inboxes, batches DO contain the consumer's own
// multicasts (the shared group is identical for everyone); the consumer
// is responsible for skipping them, and skippedOwn counts those.
type countingConsumer struct {
	chatty
	batchedCalls int
	skippedOwn   int
}

// BuildCombined implements BatchConsumer: the consumer keeps no shared
// knowledge cache.
func (m *countingConsumer) BuildCombined(*Batch) bool { return false }

func (m *countingConsumer) StepBatched(now int64, batches []*Batch, tail []Delivery) StepResult {
	m.batchedCalls++
	for _, b := range batches {
		for _, mc := range b.MCs {
			if mc.From == m.pid {
				m.skippedOwn++
				continue
			}
			m.received++
		}
	}
	return m.chatty.Step(now, tail)
}

// TestBatchConsumerReceivesGroups checks BatchConsumer machines get the
// shared groups directly (no materialization), with or without an
// observer attached.
func TestBatchConsumerReceivesGroups(t *testing.T) {
	for _, obs := range []Observer{nil, NopObserver{}} {
		const p = 4
		ms := make([]Machine, p)
		cs := make([]*countingConsumer, p)
		for i := range ms {
			cs[i] = &countingConsumer{chatty: chatty{pid: i, limit: 10}}
			ms[i] = cs[i]
		}
		res, err := Run(Config{P: p, T: 1, Observer: obs}, append([]Machine{&solver{&cs[0].chatty}}, ms[1:]...), &batchFair{d: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatal("not solved")
		}
		// Every consumer must have been fed through StepBatched, must have
		// seen (and skipped) its own multicasts inside the shared groups,
		// and must have received peers' multicasts through them.
		for i := 1; i < p; i++ {
			if cs[i].batchedCalls == 0 {
				t.Fatalf("observer=%T: machine %d never received a batch", obs, i)
			}
			if cs[i].skippedOwn == 0 {
				t.Fatalf("observer=%T: machine %d never saw its own multicast in a shared group", obs, i)
			}
			if cs[i].received == 0 {
				t.Fatalf("observer=%T: machine %d received nothing through batches", obs, i)
			}
		}
	}
}

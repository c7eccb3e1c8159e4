package sim_test

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"doall/internal/adversary"
	"doall/internal/sim"
)

// classMachine is a plain machine (no BatchConsumer, so grouped batches
// reach it materialized): every step it folds its inbox, in order, into
// a hash of each delivery's sender, send time and delivery time, performs
// task (pid+steps) mod tasks, broadcasts every every-th step, and halts
// after limit steps.
type classMachine struct {
	pid, tasks, limit, every int
	steps                    int
	seen                     uint64 // hash of the inbox stream, step by step
	delivered                int
}

func mix(h, x uint64) uint64 { return (h ^ x) * 0x100000001b3 }

func (m *classMachine) Step(now int64, inbox []sim.Delivery) sim.StepResult {
	m.seen = mix(m.seen, uint64(now))
	for _, d := range inbox {
		m.seen = mix(mix(mix(m.seen, uint64(d.From())), uint64(d.SentAt())), uint64(d.DeliverAt()))
		m.delivered++
	}
	m.steps++
	r := sim.StepResult{Halt: m.steps >= m.limit}
	r.Perform((m.pid + m.steps) % m.tasks)
	if m.steps%m.every == 0 {
		r.Broadcast = m.pid
	}
	return r
}

func (m *classMachine) KnowsAllDone() bool { return m.steps >= m.limit }

func classMachines(p, tasks, limit, every int) ([]sim.Machine, []*classMachine) {
	ms := make([]sim.Machine, p)
	cs := make([]*classMachine, p)
	for i := range ms {
		cs[i] = &classMachine{pid: i, tasks: tasks, limit: limit, every: every}
		ms[i] = cs[i]
	}
	return ms, cs
}

// classFill is a deterministic adversary whose broadcasts take every
// shape the engine schedules: uniform answers, fills that share one
// delay, fills whose delay classes interleave across recipient ids and
// wheel buckets, omitted copies, and one broadcast whose copies are all
// omitted. Processors skip every fourth unit (pid-staggered), so inboxes
// and batches pile up across units; processor 2 crashes at time 3 with
// deliveries addressed to it in flight and revives at time 7.
type classFill struct{ d int64 }

func (a *classFill) D() int64 { return a.d }

func (a *classFill) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		if (i+int(v.Now))%4 != 3 {
			dec.Active = append(dec.Active, i)
		}
	}
	switch v.Now {
	case 3:
		dec.Crash = append(dec.Crash, 2)
	case 7:
		dec.Revive = append(dec.Revive, 2)
	}
}

func (a *classFill) Delays(from int, sentAt int64, out []int64) int64 {
	k := int64(from) + 3*sentAt
	for j := range out {
		if j == from {
			continue
		}
		switch {
		case from == 1 && sentAt == 2:
			out[j] = sim.Omitted
		case k%5 == 0:
			return 1 + k%a.d
		case k%5 == 1:
			out[j] = 1 + (k/5)%a.d
		case (int64(j)+k)%7 == 0:
			out[j] = sim.Omitted
		default:
			out[j] = 1 + (int64(j*(j+3))+k)%a.d
		}
	}
	return 0
}

// inboxTap records, at every unit, each processor's View.Inbox in order,
// and separately the deliveries made at that unit.
type inboxTap struct {
	sim.Adversary
	seen, fresh []sim.Message
}

func (a *inboxTap) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 0; i < v.P; i++ {
		for _, d := range v.Inbox(i) {
			m := sim.Message{From: d.From(), To: i, SentAt: d.SentAt(), DeliverAt: d.DeliverAt()}
			a.seen = append(a.seen, m)
			if m.DeliverAt == v.Now {
				a.fresh = append(a.fresh, m)
			}
		}
	}
	a.Adversary.Schedule(v, dec)
}

// deliverTap records the OnDeliver stream.
type deliverTap struct {
	sim.NopObserver
	got []sim.Message
}

func (o *deliverTap) OnDeliver(m sim.Message) {
	m.Payload = nil
	o.got = append(o.got, m)
}

// deliveryOrder sorts an oracle run's fresh deliveries into the legacy
// engine's heap order: delivery time, then send order, then recipient.
// classFill schedules ascending ids, so send order is (SentAt, From).
func deliveryOrder(ms []sim.Message) []sim.Message {
	out := slices.Clone(ms)
	slices.SortFunc(out, func(a, b sim.Message) int {
		for _, c := range []int{cmp.Compare(a.DeliverAt, b.DeliverAt), cmp.Compare(a.SentAt, b.SentAt),
			cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)} {
			if c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []sim.Message) int {
	for k := 0; k < min(len(a), len(b)); k++ {
		if a[k] != b[k] {
			return k
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// sharesUnit reports whether some processor received, in one unit, a
// copy of a uniform broadcast (a batch) and a copy of a spread one (an
// inbox delivery), so the inbox views must interleave the two.
func sharesUnit(fresh []sim.Message) bool {
	type unit struct {
		at int64
		to int
	}
	kinds := map[unit]int{}
	for _, m := range fresh {
		k := int64(m.From) + 3*m.SentAt
		kind := 1 // spread
		if k%5 == 0 && !(m.From == 1 && m.SentAt == 2) {
			kind = 2 // uniform
		}
		kinds[unit{m.DeliverAt, m.To}] |= kind
	}
	for _, k := range kinds {
		if k == 3 {
			return true
		}
	}
	return false
}

// TestDelayClassesMatchLegacy runs classFill — counting-sorted classes at
// d ≤ p and sort-ordered ones at d > p — sequentially and sharded, against
// the per-message oracle: the Result is DeepEqual to RunLegacy's, every
// machine sees the same inbox stream, View.Inbox lists the same
// deliveries in the same order, the OnDeliver stream is the oracle's
// delivery order, and every Multicast record returns to the pool exactly
// once, settled.
func TestDelayClassesMatchLegacy(t *testing.T) {
	const p, tasks, limit, every = 7, 8, 14, 1
	for _, d := range []int64{4, 9} {
		legacyMs, legacyCs := classMachines(p, tasks, limit, every)
		legacyTap := &inboxTap{Adversary: &classFill{d: d}}
		want, errL := sim.RunLegacy(sim.Config{P: p, T: tasks}, legacyMs, legacyTap)
		wantDeliveries := deliveryOrder(legacyTap.fresh)
		if !sharesUnit(legacyTap.fresh) || want.Omissions == 0 || want.Crashes != 1 || want.Revivals != 1 {
			t.Fatalf("d=%d: the oracle run is not representative: %+v", d, want)
		}
		for _, shards := range []int{1, 3} {
			name := fmt.Sprintf("d=%d/shards=%d", d, shards)
			ms, cs := classMachines(p, tasks, limit, every)
			tap := &inboxTap{Adversary: &classFill{d: d}}
			obs := &deliverTap{}
			e := sim.NewEngine()
			seeded := e.SeedRecordPool(256)
			got, errN := e.Run(sim.Config{P: p, T: tasks, Shards: shards, Observer: obs}, ms, tap)
			e.Close()
			if (errL == nil) != (errN == nil) {
				t.Fatalf("%s: error mismatch: legacy=%v new=%v", name, errL, errN)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: Result diverged:\nlegacy: %+v\nnew:    %+v", name, want, got)
			}
			for i := range cs {
				if cs[i].seen != legacyCs[i].seen || cs[i].delivered != legacyCs[i].delivered {
					t.Fatalf("%s: machine %d saw another inbox stream (%d deliveries, legacy %d)",
						name, i, cs[i].delivered, legacyCs[i].delivered)
				}
			}
			if k := firstDiff(tap.seen, legacyTap.seen); k >= 0 {
				t.Fatalf("%s: View.Inbox entry %d diverged", name, k)
			}
			if k := firstDiff(obs.got, wantDeliveries); k >= 0 {
				t.Fatalf("%s: OnDeliver call %d diverged", name, k)
			}
			checkPool(t, name, e, seeded)
		}
	}
}

// checkPool asserts the run returned every seeded record to the pool
// exactly once, settled, and needed no other record.
func checkPool(t *testing.T, name string, e *sim.Engine, seeded []*sim.Multicast) {
	t.Helper()
	pool := e.RecordPool()
	in := make(map[*sim.Multicast]int, len(pool))
	for _, mc := range pool {
		in[mc]++
		if !mc.Settled() {
			t.Fatalf("%s: pooled record %p is not settled: %+v", name, mc, *mc)
		}
	}
	for _, mc := range seeded {
		if in[mc] != 1 {
			t.Fatalf("%s: seeded record %p is in the pool %d times after the run, want once", name, mc, in[mc])
		}
	}
	if len(pool) != len(seeded) {
		t.Fatalf("%s: pool holds %d records after the run, want the %d seeded ones", name, len(pool), len(seeded))
	}
}

// TestDelayClassesHugeBound runs the random adversary at d = 2^40 with
// p = 8: every copy takes the wheel's overflow path as a range event of a
// stable-sorted fill and is still in flight when the run ends, so drain
// settles it. The run matches RunLegacy, returns every record, and
// allocates O(p) memory, nowhere near O(d).
func TestDelayClassesHugeBound(t *testing.T) {
	const p, tasks, limit, every = 8, 16, 20, 1
	const d = int64(1) << 40
	legacyMs, _ := classMachines(p, tasks, limit, every)
	want, errL := sim.RunLegacy(sim.Config{P: p, T: tasks}, legacyMs, adversary.NewRandom(d, 0.6, 3))

	ms, _ := classMachines(p, tasks, limit, every)
	adv := adversary.NewRandom(d, 0.6, 3)
	e := sim.NewEngine()
	seeded := e.SeedRecordPool(256)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, errN := e.Run(sim.Config{P: p, T: tasks}, ms, adv)
	runtime.ReadMemStats(&after)
	if (errL == nil) != (errN == nil) {
		t.Fatalf("error mismatch: legacy=%v new=%v", errL, errN)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Result diverged:\nlegacy: %+v\nnew:    %+v", want, got)
	}
	if got.TotalMessages == 0 {
		t.Fatal("nothing was sent")
	}
	checkPool(t, "d=2^40", e, seeded)
	// The wheel's bucket array is capped at maxWheelHorizon (2^15) slices,
	// under 1 MB; everything else here is O(p).
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("run allocated %d bytes at d=2^40, want O(p)", alloc)
	}
}

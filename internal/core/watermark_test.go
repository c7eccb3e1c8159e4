package core

import (
	"fmt"
	"reflect"
	"testing"

	"doall/internal/bitset"
	"doall/internal/perm"
	"doall/internal/sim"
)

// omitFirstAdv is the shape that separates a builder's private merge
// history from what every consumer of a batch has merged. It schedules
// processors 1..p-1 and then 0 every unit. Sender 0's time-0 broadcast
// reaches only processor 1 (every other copy is omitted); afterwards
// sender 0's broadcasts take one unit and everyone else's take three.
// Processor 1 thus merges sender 0's first snapshot eagerly, one unit
// before the first batch holding sender 0's later snapshot forms, and
// every other consumer of that batch has never seen the first one.
//
// With revive set, every sender but 0 and 6 has all its copies omitted,
// so the caches hold only their snapshots, and two processors crash and
// revive. Processor 6 crashes at the start of unit 1, after its time-0
// broadcast went out, and revives at unit 2: the batch formed at unit 3
// holds its own pre-crash snapshot, which it must not learn back from a
// cache. Processor 5 crashes at unit 0, before it ever steps, and
// revives at unit 3, after that batch formed: the cache of the next
// batch must carry sender 0's whole knowledge, although the cache formed
// at unit 2 already carried part of it to everyone else.
type omitFirstAdv struct{ revive bool }

func (omitFirstAdv) D() int64 { return 3 }

func (a omitFirstAdv) Schedule(v *sim.View, dec *sim.Decision) {
	for i := 1; i < v.P; i++ {
		dec.Active = append(dec.Active, i)
	}
	dec.Active = append(dec.Active, 0)
	if !a.revive {
		return
	}
	switch v.Now {
	case 0:
		dec.Crash = append(dec.Crash, 5)
	case 1:
		dec.Crash = append(dec.Crash, 6)
	case 2:
		dec.Revive = append(dec.Revive, 6)
	case 3:
		dec.Revive = append(dec.Revive, 5)
	}
}

func (a omitFirstAdv) Delays(from int, sentAt int64, out []int64) int64 {
	switch {
	case from == 0 && sentAt > 0:
		return 1
	case from != 0 && (!a.revive || from == 6):
		return 3
	}
	for j := range out {
		out[j] = sim.Omitted
	}
	if from == 0 {
		out[1] = 1
	}
	return 0
}

// watermarkAlgos builds the batch-consuming algorithms at one shape.
var watermarkAlgos = []struct {
	name  string
	build func(p, t int, seed int64) []sim.Machine
}{
	{"PaRan1", NewPaRan1},
	{"PaRan2", NewPaRan2},
	{"DA", func(p, t int, seed int64) []sim.Machine {
		ms, err := NewDA(DAConfig{P: p, T: t, Q: 2, Perms: perm.RotationList(2, 2)})
		if err != nil {
			panic(err)
		}
		return ms
	}},
}

// knowledgeOf returns a copy of machine m's knowledge set: PA's done-set
// or DA's progress-tree bits.
func knowledgeOf(m sim.Machine) *bitset.Set {
	switch m := m.(type) {
	case *PA:
		return m.vers.Bits().Clone()
	case *DA:
		return m.vers.Bits().Clone()
	}
	panic(fmt.Sprintf("no knowledge set in %T", m))
}

// resultDiff names the first field in which a and b differ, or returns
// "" when they are equal.
func resultDiff(a, b *sim.Result) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// checkAgainstLegacy runs one algorithm under adv on RunLegacy and on
// Run at shards 1 and 2. The full runs must return equal Results, and
// runs cut at maxSteps must leave every machine with the same knowledge.
func checkAgainstLegacy(t *testing.T, adv sim.Adversary, maxSteps int64) {
	const p, tasks = 130, 130
	for _, algo := range watermarkAlgos {
		for _, seed := range []int64{0, 1, 2} {
			run := func(engine func(sim.Config, []sim.Machine, sim.Adversary) (*sim.Result, error), cfg sim.Config) (*sim.Result, []sim.Machine) {
				ms := algo.build(p, tasks, seed)
				cfg.P, cfg.T = p, tasks
				res, err := engine(cfg, ms, adv)
				if err != nil && err != sim.ErrStepCap {
					t.Fatal(err)
				}
				return res, ms
			}
			legacy, _ := run(sim.RunLegacy, sim.Config{})
			_, legacyCut := run(sim.RunLegacy, sim.Config{MaxSteps: maxSteps})
			for _, shards := range []int{1, 2} {
				got, _ := run(sim.Run, sim.Config{Shards: shards})
				if f := resultDiff(got, legacy); f != "" {
					t.Fatalf("%s seed %d shards %d: Result.%s differs from RunLegacy's", algo.name, seed, shards, f)
				}
				_, cut := run(sim.Run, sim.Config{Shards: shards, MaxSteps: maxSteps})
				for i := range cut {
					if g, w := knowledgeOf(cut[i]), knowledgeOf(legacyCut[i]); !g.Equal(w) {
						t.Fatalf("%s seed %d shards %d: after %d units processor %d knows %d bits, RunLegacy's knows %d",
							algo.name, seed, shards, maxSteps, i, g.Count(), w.Count())
					}
				}
			}
		}
	}
}

// TestCombinedCacheCarriesWholeKnowledge checks that a batch's combined
// cache carries every sender's whole knowledge that some consumer of the
// batch has not merged, even when the machine that builds it merged part
// of it earlier (omitFirstAdv). Knowledge sets span several words, so a
// delta segment is not the whole set.
func TestCombinedCacheCarriesWholeKnowledge(t *testing.T) {
	checkAgainstLegacy(t, omitFirstAdv{}, 3)
}

// TestCombinedCacheAfterRevive is the same check with processors that
// crash and revive: a revive zeroes the build watermarks, so the next
// caches carry every sender's whole knowledge to the rejoined machine,
// and a batch holding a revived sender's pre-crash snapshot gets no cache.
func TestCombinedCacheAfterRevive(t *testing.T) {
	checkAgainstLegacy(t, omitFirstAdv{revive: true}, 5)
}

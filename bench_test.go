// Benchmarks regenerating every experiment in the E1–E10 index
// (AllExperiments in internal/scenario/experiments.go).
// Each benchmark runs its experiment's workload and reports the measured
// work (and where meaningful, messages) as custom metrics, so
// `go test -bench=. -benchmem` reproduces the paper's evaluation shape:
//
//   - E1/E2: work forced by the lower-bound adversaries vs the Ω formula
//   - E3/E4: contention and d-contention vs their analytic bounds
//   - E5–E7: DA and PA work growth in d vs their O(·) curves
//   - E8:    the p·t wall at d = Ω(t)
//   - E9:    message complexity ceilings
//   - E10:   DA vs PA crossover
//
// Absolute ns/op numbers are simulator speed, not the paper's testbed;
// the work/messages metrics are the reproduction targets.
package doall_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"doall"
	"doall/internal/adversary"
	"doall/internal/bitset"
	"doall/internal/bounds"
	"doall/internal/core"
	"doall/internal/perm"
	"doall/internal/scenario"
	"doall/internal/sim"
)

// benchScenario runs one scenario b.N times, reporting work and messages.
func benchScenario(b *testing.B, sc scenario.Scenario) {
	b.Helper()
	var work, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Sim.Work
		msgs = res.Sim.Messages
	}
	b.ReportMetric(float64(work), "work")
	b.ReportMetric(float64(msgs), "messages")
}

// E1: deterministic lower bound (Theorem 3.1). Forced work of DA under
// the off-line stage adversary, against the Ω formula.
func BenchmarkE1LowerBoundDet(b *testing.B) {
	const p, t, d = 8, 512, 8
	var work int64
	for i := 0; i < b.N; i++ {
		ms, err := scenario.Scenario{Algorithm: scenario.AlgoDA, P: p, T: t, D: d, Seed: 1}.Machines()
		if err != nil {
			b.Fatal(err)
		}
		adv := adversary.NewStageDeterministic(d, t)
		res, err := sim.Run(sim.Config{P: p, T: t}, ms, adv)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	b.ReportMetric(float64(work), "forced-work")
	b.ReportMetric(bounds.LowerBound(p, t, d), "omega-bound")
}

// E2: randomized lower bound (Theorem 3.4). Forced work of PaRan2 under
// the adaptive intent-observing adversary.
func BenchmarkE2LowerBoundRand(b *testing.B) {
	const p, t, d = 8, 512, 8
	var work int64
	for i := 0; i < b.N; i++ {
		ms := doall.NewPaRan2(p, t, int64(i))
		adv := adversary.NewStageOnline(d, t)
		res, err := sim.Run(sim.Config{P: p, T: t}, ms, adv)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	b.ReportMetric(float64(work), "forced-work")
	b.ReportMetric(bounds.LowerBound(p, t, d), "omega-bound")
}

// E3: contention of searched schedule lists (Lemma 4.1) and ObliDo's
// primary executions (Lemma 4.2).
func BenchmarkE3Contention(b *testing.B) {
	const n = 5
	var cont int
	var primary int64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(3))
		res := perm.FindLowContentionList(n, n, 100, r)
		cont = res.Cont
		ms := doall.NewObliDo(n, n, res.List)
		rr, err := sim.Run(sim.Config{P: n, T: n}, ms, adversary.NewFair(2))
		if err != nil {
			b.Fatal(err)
		}
		primary = rr.PrimaryExecutions
	}
	b.ReportMetric(float64(cont), "Cont")
	b.ReportMetric(float64(perm.HarmonicBound(n)), "3nHn-bound")
	b.ReportMetric(float64(primary), "primary-execs")
}

// E4: d-contention of random schedule lists vs the Theorem 4.4 bound.
func BenchmarkE4DContention(b *testing.B) {
	const n, p, d = 128, 8, 4
	var est int
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(4))
		l := perm.RandomList(p, n, r)
		est = perm.DContEstimate(l, d, 30, r)
	}
	b.ReportMetric(float64(est), "dcont-estimate")
	b.ReportMetric(perm.DContBound(n, p, d), "thm44-bound")
}

// E5: DA(q) work vs delay (Theorem 5.5) at a representative point of the
// sweep; the full sweep is `doall experiments -only E5`.
func BenchmarkE5DAWork(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoDA, P: 8, T: 256, Q: 2, D: 4, Seed: 5})
}

// E5 ablation: arity q = 4 at the same point.
func BenchmarkE5DAWorkQ4(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoDA, P: 8, T: 256, Q: 4, D: 4, Seed: 5})
}

// E6: PaRan1 work vs delay (Theorem 6.2/Corollary 6.4).
func BenchmarkE6PaRanWork(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoPaRan1, P: 8, T: 256, D: 4, Seed: 6})
}

// E6 variant: PaRan2 (same expected work, fewer random bits).
func BenchmarkE6PaRan2Work(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoPaRan2, P: 8, T: 256, D: 4, Seed: 6})
}

// E7: PaDet work with a searched low-d-contention list (Theorem 6.3).
func BenchmarkE7PaDetWork(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoPaDet, P: 8, T: 256, D: 4, Seed: 7})
}

// E8: the quadratic wall at d = Ω(t) (Proposition 2.2).
func BenchmarkE8LargeDelay(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoDA, P: 8, T: 128, D: 256, Seed: 8})
}

// E8 baseline: the oblivious algorithm at the same point.
func BenchmarkE8Oblivious(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoAllToAll, P: 8, T: 128, D: 256, Seed: 8})
}

// E9: message complexity (Theorem 5.6: M = O(p·W)).
func BenchmarkE9Messages(b *testing.B) {
	benchScenario(b, scenario.Scenario{Algorithm: scenario.AlgoDA, P: 8, T: 256, Q: 2, D: 4, Seed: 9})
}

// E10: DA vs PaDet crossover point (Section 1.2 discussion).
func BenchmarkE10Crossover(b *testing.B) {
	var wDA, wPA int64
	for i := 0; i < b.N; i++ {
		da, err := scenario.Run(scenario.Scenario{Algorithm: scenario.AlgoDA, P: 8, T: 512, D: 8, Seed: 10})
		if err != nil {
			b.Fatal(err)
		}
		pa, err := scenario.Run(scenario.Scenario{Algorithm: scenario.AlgoPaDet, P: 8, T: 512, D: 8, Seed: 10})
		if err != nil {
			b.Fatal(err)
		}
		wDA, wPA = da.Sim.Work, pa.Sim.Work
	}
	b.ReportMetric(float64(wDA), "work-DA")
	b.ReportMetric(float64(wPA), "work-PaDet")
}

// Substrate microbenchmarks: simulator step throughput and the
// permutation toolkit, so regressions in the engine are visible
// independently of algorithm behavior.

func BenchmarkSimulatorSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := doall.NewPaRan1(16, 512, 1)
		if _, err := sim.Run(sim.Config{P: 16, T: 512}, ms, adversary.NewFair(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// Engine benchmarks: the multicast-native engine (sim.Run) against the
// per-message legacy engine (sim.RunLegacy) on broadcast-heavy configs.
// Machines are cloned from one pristine set outside the timer so the
// numbers isolate engine throughput; run with -benchmem to see the
// allocation drop per multicast.
func benchEngine(b *testing.B, engine func(sim.Config, []sim.Machine, sim.Adversary) (*sim.Result, error), p, t int, d int64) {
	b.Helper()
	pristine, err := scenario.Scenario{Algorithm: scenario.AlgoPaRan1, P: p, T: t, D: d, Seed: 42}.Machines()
	if err != nil {
		b.Fatal(err)
	}
	adv := adversary.NewFair(d)
	var work int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ms, ok := sim.CloneMachines(pristine)
		if !ok {
			b.Fatal("PaRan1 machines must be cloneable")
		}
		b.StartTimer()
		res, err := engine(sim.Config{P: p, T: t}, ms, adv)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	b.ReportMetric(float64(work), "work")
}

// The ISSUE-1 acceptance config: broadcast-heavy PA at p=256, t=1024,
// d=8. The multicast engine must beat the legacy engine ≥ 5×. With the
// observer hooks threaded through the engine this benchmark doubles as
// the nil-observer overhead guard: Config.Observer is nil here, so ns/op
// must stay within noise of the BENCH_0.json multicast-engine numbers.
func BenchmarkEngineMulticastPA256(b *testing.B) { benchEngine(b, sim.Run, 256, 1024, 8) }
func BenchmarkEngineLegacyPA256(b *testing.B)    { benchEngine(b, sim.RunLegacy, 256, 1024, 8) }

// A mid-size point for quicker regression tracking.
func BenchmarkEngineMulticastPA64(b *testing.B) { benchEngine(b, sim.Run, 64, 512, 4) }
func BenchmarkEngineLegacyPA64(b *testing.B)    { benchEngine(b, sim.RunLegacy, 64, 512, 4) }

// The ISSUE-3 steady state: one reusable engine and one machine set,
// reset in place between runs. This is the sweep's per-trial inner loop
// minus machine construction; with -benchmem it must report 0 B/op and
// 0 allocs/op — the allocation-free steady state the scratch-reuse
// contracts exist for (gated by TestZeroSteadyStateAllocs*).
func BenchmarkEngineSteadyStatePA256(b *testing.B) {
	const p, t, d = 256, 1024, 8
	ms, err := scenario.Scenario{Algorithm: scenario.AlgoPaRan1, P: p, T: t, D: d, Seed: 42}.Machines()
	if err != nil {
		b.Fatal(err)
	}
	adv := adversary.NewFair(d)
	eng := sim.NewEngine()
	// PaRan1's pools at this shape converge over the first few runs, so
	// warm four reset runs, as the TestZeroSteadyStateAllocs gates do,
	// before the timed loop measures the steady state.
	set := sim.NewMachineSet(ms)
	for w := 0; w < 4; w++ {
		set.Reset()
		if _, err := eng.Run(sim.Config{P: p, T: t}, ms, adv); err != nil {
			b.Fatal(err)
		}
	}
	var work int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.ResetMachines(ms) {
			b.Fatal("PaRan1 machines must be resettable")
		}
		res, err := eng.Run(sim.Config{P: p, T: t}, ms, adv)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	b.ReportMetric(float64(work), "work")
}

// The same acceptance config with every observer hook live (cheap
// counting callbacks), quantifying the cost of a non-nil observer; the
// delta between this and BenchmarkEngineMulticastPA256 is the full hook
// overhead.
func BenchmarkEngineMulticastPA256Observer(b *testing.B) {
	const p, t, d = 256, 1024, 8
	var events int64
	obs := &sim.FuncObserver{
		Step:      func(int, int64, *sim.StepResult) { events++ },
		Multicast: func(int, int64, any, int) { events++ },
		Deliver:   func(sim.Message) { events++ },
		Crash:     func(int, int64) { events++ },
		Solved:    func(int64, *sim.Result) { events++ },
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ms, err := scenario.Scenario{Algorithm: scenario.AlgoPaRan1, P: p, T: t, D: d, Seed: 42}.Machines()
		if err != nil {
			b.Fatal(err)
		}
		adv := adversary.NewFair(d)
		b.StartTimer()
		if _, err := sim.Run(sim.Config{P: p, T: t, Observer: obs}, ms, adv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events")
}

// BenchmarkScenarioRun measures the declarative path end to end —
// registry lookup, adversary-expression resolution, machine construction,
// simulation — so the Scenario layer's overhead stays visible next to the
// raw engine numbers.
func BenchmarkScenarioRun(b *testing.B) {
	sc := doall.Scenario{Algorithm: "PaRan1", Adversary: "crashing(slow-set(fair))", P: 64, T: 512, D: 4, Seed: 42}
	var work int64
	for i := 0; i < b.N; i++ {
		res, err := doall.RunScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Sim.Work
	}
	b.ReportMetric(float64(work), "work")
}

// BenchmarkSweepRunner exercises the sharded (p, t, d, algo) sweep used
// for the BENCH_*.json baselines on a small grid.
func BenchmarkSweepRunner(b *testing.B) {
	cfg := scenario.SweepConfig{
		Algos:    []string{scenario.AlgoPaRan1, scenario.AlgoDA},
		Ps:       []int{8, 16},
		Ts:       []int{64},
		Ds:       []int64{1, 4},
		BaseSeed: 1,
	}
	for i := 0; i < b.N; i++ {
		cells := scenario.RunSweep(cfg)
		for _, c := range cells {
			if c.Err != "" {
				b.Fatalf("cell %+v failed: %s", c, c.Err)
			}
		}
	}
}

func BenchmarkDLRM(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := perm.Random(1024, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm.DLRM(p, 16)
	}
}

func BenchmarkContentionSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		perm.FindLowContentionList(5, 5, 20, r)
	}
}

// BenchmarkDContentionSearchP128D8 is PaDet's construction at the p=128,
// d=8 fair-grid cell: a 32-restart d-contention search over lists of 128
// permutations of 128 jobs, with 64 sampled σ per candidate.
func BenchmarkDContentionSearchP128D8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		perm.FindLowDContentionList(128, 128, 8, 32, r)
	}
}

// BenchmarkBuildPaRan1 times PaRan1's construction (p permutations of p
// jobs in one int32 backing: 64 MiB at p=4096) at t=2^16, serially and at
// two shards.
func BenchmarkBuildPaRan1(b *testing.B) { benchBuild(b, core.NewPaRan1Sharded) }

// BenchmarkBuildPaRan2 times PaRan2's construction (p seeded sources and
// their machines) on the same grid.
func BenchmarkBuildPaRan2(b *testing.B) { benchBuild(b, core.NewPaRan2Sharded) }

func benchBuild(b *testing.B, build func(p, t int, seed int64, shards int) []sim.Machine) {
	for _, p := range []int{1024, 4096} {
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("p=%d/shards=%d", p, shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					build(p, 1<<16, 42, shards)
				}
			})
		}
	}
}

// BenchmarkEngineSteadyStatePA1024 is the large-shape sibling of the
// PA256 steady-state benchmark: PaRan1 at p=1024, t=65536 under the fair
// adversary on one warmed reusable engine — the grouped delivery path
// and the versioned knowledge plane end to end, still at 0 allocs/op.
func BenchmarkEngineSteadyStatePA1024(b *testing.B) {
	benchSteadyState1024(b, doall.NewPaRan1(1024, 65536, 42))
}

// BenchmarkEngineSteadyStatePaRan2_1024 is the same shape for PaRan2,
// whose per-selection uniform draw over the undone jobs is a popcount
// rank/select over the done-set's words. Its reset machines re-seed
// their random sources, so each iteration replays the same trial.
func BenchmarkEngineSteadyStatePaRan2_1024(b *testing.B) {
	benchSteadyState1024(b, doall.NewPaRan2(1024, 65536, 42))
}

// benchSteadyState1024 times whole re-runs of ms (p=1024, t=65536, fair,
// d=8) on one warmed reusable engine, machines reset in place.
func benchSteadyState1024(b *testing.B, ms []sim.Machine) {
	const p, t, d = 1024, 65536, 8
	adv := adversary.NewFair(d)
	eng := sim.NewEngine()
	// Pool and slice capacities converge over the first few runs at this
	// shape (buffer-to-use pairings shift until every pooled buffer has
	// its maximal capacity); warm until steady so the timed loop measures
	// the true 0 allocs/op state.
	for w := 0; w < 4; w++ {
		sim.ResetMachines(ms)
		if _, err := eng.Run(sim.Config{P: p, T: t}, ms, adv); err != nil {
			b.Fatal(err)
		}
	}
	var work int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.ResetMachines(ms) {
			b.Fatal("machines must be resettable")
		}
		res, err := eng.Run(sim.Config{P: p, T: t}, ms, adv)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	b.ReportMetric(float64(work), "work")
}

// BenchmarkVersionedMergeKernels pins the word-level union kernels under
// the versioned knowledge plane's three merge regimes. The shapes mirror
// what a p=65536 run does per delivery: full-width base unions (first
// contact / post-rebase gap), short delta-chain suffixes (the steady
// in-sequence path), and the base-plus-chain fallback a cursor gap forces.
func BenchmarkVersionedMergeKernels(b *testing.B) {
	const n = 1 << 20 // one knowledge set: 16 Ki words

	// base-union: the raw Set kernel. dst restarts from a ~third-dense
	// pristine every iteration (a memcopy; the counting union dominates)
	// so each union does full-width real work rather than measuring the
	// saturated skip path.
	b.Run("base-union", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		pristine, src := bitset.New(n), bitset.New(n)
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				pristine.Set(i)
			case 1:
				src.Set(i)
			}
		}
		dst := bitset.New(n)
		var added int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.CopyFrom(pristine)
			added = dst.UnionWith(src)
		}
		b.ReportMetric(float64(added), "bits-added")
	})

	// chain-suffix: the in-sequence Merger path — cursor at version 1,
	// snapshot four delta segments ahead, so each Merge walks only the
	// chain suffix. Strides are sized to stay under the rebase threshold
	// (the suffix path must not silently become a base merge).
	b.Run("chain-suffix", func(b *testing.B) {
		src := bitset.NewVersioned(n)
		for i := 0; i < n; i += 64 {
			src.Set(i)
		}
		s1 := src.Snapshot()
		v1 := s1.Ver()
		var snaps []*bitset.Snapshot
		for round := 1; round <= 4; round++ {
			for i := round; i < n; i += 1024 {
				src.Set(i)
			}
			snaps = append(snaps, src.Snapshot())
		}
		tip := snaps[len(snaps)-1]
		if tip.BaseVer() > v1 {
			b.Fatalf("setup rebased (baseVer=%d > cursor=%d); shrink the rounds", tip.BaseVer(), v1)
		}
		dst := bitset.NewVersioned(n)
		m := bitset.NewMerger(1)
		m.Note(0, v1)
		m.Merge(dst, 0, tip) // pre-merge: the timed loop measures the pure segment scans
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.Note(0, v1)
			m.Merge(dst, 0, tip)
		}
		b.ReportMetric(float64(tip.ChainLen()), "chain-len")
	})

	// cursor-gap: the fallback — a cursor behind the snapshot's base
	// version forces the full base union plus the whole chain. The source
	// is grown through enough dirty words that Snapshot rebases, so the
	// epoch genuinely has a base.
	b.Run("cursor-gap", func(b *testing.B) {
		src := bitset.NewVersioned(n)
		r := rand.New(rand.NewSource(2))
		var snap *bitset.Snapshot
		for round := 0; round < 12; round++ {
			for i := 0; i < n/8; i++ {
				src.Set(r.Intn(n))
			}
			if snap != nil {
				src.Recycle(snap)
			}
			snap = src.Snapshot()
		}
		if snap.Base() == nil || snap.BaseVer() == 0 {
			b.Fatal("setup did not produce a rebased epoch; grow the rounds")
		}
		// One sparse round on top of the base, so the gap path walks a
		// non-empty chain as well as the full base.
		for i := 0; i < n; i += 4096 {
			src.Set(i)
		}
		src.Recycle(snap)
		snap = src.Snapshot()
		dst := bitset.NewVersioned(n)
		m := bitset.NewMerger(1)
		m.Merge(dst, 0, snap) // pre-merge; timed loop is the gap-path scan
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.Merge(dst, 0, snap)
		}
		b.ReportMetric(float64(snap.ChainLen()), "chain-len")
	})
}

// BenchmarkParallelTickPA65536 is the intra-run sharding reproduction
// vehicle: PaRan1 under the fair adversary at p=65536, t=2^20, d=8 on one
// reusable engine, sequential versus sharded. On a multi-core runner the
// sharded line is where the ≥2× ns/op improvement shows up; on a
// single-core machine it instead bounds the sharding overhead (the two
// lines must stay close). Full shape allocates ~32 GiB of shared
// permutation backing — -short drops to p=4096, t=2^16 (~128 MiB), which
// is also what CI's bench smoke runs.
func BenchmarkParallelTickPA65536(b *testing.B) {
	p, t := 65536, 1<<20
	const d = 8
	if testing.Short() {
		p, t = 4096, 1<<16
	}
	ms := doall.NewPaRan1(p, t, 42)
	adv := adversary.NewFair(d)
	shardCounts := []int{1, 2}
	if auto := doall.ResolveShards(doall.ShardsAuto, p); auto > 2 {
		shardCounts = append(shardCounts, auto)
	}
	for _, s := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			eng := sim.NewEngine()
			defer eng.Close()
			cfg := sim.Config{P: p, T: t, Shards: s}
			var work int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !sim.ResetMachines(ms) {
					b.Fatal("PaRan1 machines must be resettable")
				}
				res, err := eng.Run(cfg, ms, adv)
				if err != nil {
					b.Fatal(err)
				}
				work = res.Work
			}
			b.ReportMetric(float64(work), "work")
		})
	}

	// Phase sub-benchmarks: the same shape on the sharded engine, with
	// ns/op overridden to that phase's wall-clock share (from the
	// engine's PhaseProfile deltas), so the serial fraction of the tick —
	// a1 + b against the total — is a measured number, not a guess.
	phaseShards := doall.ResolveShards(doall.ShardsAuto, p)
	if phaseShards < 2 {
		phaseShards = 2
	}
	for pi, phase := range []string{"A1", "A2", "B"} {
		b.Run("phase="+phase, func(b *testing.B) {
			eng := sim.NewEngine()
			defer eng.Close()
			cfg := sim.Config{P: p, T: t, Shards: phaseShards}
			b.ReportAllocs()
			start := eng.PhaseProfile()
			for i := 0; i < b.N; i++ {
				if !sim.ResetMachines(ms) {
					b.Fatal("PaRan1 machines must be resettable")
				}
				if _, err := eng.Run(cfg, ms, adv); err != nil {
					b.Fatal(err)
				}
			}
			prof := eng.PhaseProfile()
			var dur time.Duration
			switch pi {
			case 0:
				dur = prof.A1 - start.A1
			case 1:
				dur = prof.A2 - start.A2
			case 2:
				dur = prof.B - start.B
			}
			b.ReportMetric(float64(dur.Nanoseconds())/float64(b.N), "ns/op")
			b.ReportMetric(float64(prof.Ticks-start.Ticks)/float64(b.N), "ticks/op")
		})
	}
}

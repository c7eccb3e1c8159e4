// Allocation gates for the simulation engine's steady state. The scratch-
// reuse contracts (StepResult's plain performed-task int, Schedule writing
// into an engine-owned Decision, pooled Multicast records with Delivery
// references, payload recycling) exist so that a warmed-up engine runs
// whole simulations without a single heap allocation. These tests pin that
// property: a full steady-state run at p ≥ 64 under the fair adversary
// must average exactly zero allocations — which bounds the allocations
// per simulated step and per multicast at zero, since every run performs
// thousands of both. Any regression (a slice born on the hot path, a
// payload that stopped being recycled, an adversary allocating per tick)
// fails the gate.
package doall_test

import (
	"fmt"
	"testing"

	"doall"
	"doall/internal/adversary"
	"doall/internal/scenario"
	"doall/internal/sim"
)

// assertZeroSteadyStateAllocs warms one engine + one machine set with a
// full run, then measures whole re-runs (machines reset in place, same
// engine) and requires them to be allocation-free.
func assertZeroSteadyStateAllocs(t *testing.T, name string, machines []sim.Machine, adv sim.Adversary, p, tasks int) {
	t.Helper()
	assertZeroSteadyStateAllocsCfg(t, name, machines, adv, sim.Config{P: p, T: tasks})
}

// assertZeroSteadyStateAllocsCfg is the config-explicit form, used by the
// sharded gate to pass Config.Shards through unchanged.
func assertZeroSteadyStateAllocsCfg(t *testing.T, name string, machines []sim.Machine, adv sim.Adversary, cfg sim.Config) {
	t.Helper()
	p := cfg.P
	eng := sim.NewEngine()
	// A MachineSet asserts the Resetter facets once up front; per-run
	// m.(Resetter) assertions would leave a tiny per-run chance of the
	// runtime populating an itab assertion cache (one heap allocation)
	// inside the measured window — the cause of the historical flake here.
	set := sim.NewMachineSet(machines)

	run := func() *sim.Result {
		if !set.Reset() {
			t.Fatalf("%s: machines do not support Reset", name)
		}
		res, err := eng.Run(cfg, machines, adv)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	// Warm-up: grows inboxes, wheel buckets, decision slices, and the
	// multicast and payload pools to their steady sizes.
	warm := run()
	if !warm.Solved || warm.TotalSteps < int64(p) || warm.TotalMessages < int64(p) {
		t.Fatalf("%s: warm-up run not representative: %+v", name, warm)
	}

	var steps, multicasts int64
	allocs := testing.AllocsPerRun(3, func() {
		res := run()
		steps = res.TotalSteps
		multicasts = res.TotalMessages / int64(p-1)
	})
	if allocs != 0 {
		t.Fatalf("%s: %v allocations per steady-state run, want 0 (run = %d steps, ~%d multicasts)",
			name, allocs, steps, multicasts)
	}
}

// TestZeroSteadyStateAllocsPA gates the permutation algorithm: PaRan1 at
// p=64 under the fair adversary runs allocation-free once warmed up
// (0 allocations per step and per multicast).
func TestZeroSteadyStateAllocsPA(t *testing.T) {
	const p, tasks = 64, 256
	ms := doall.NewPaRan1(p, tasks, 42)
	assertZeroSteadyStateAllocs(t, "PaRan1/fair", ms, adversary.NewFair(4), p, tasks)
}

// TestZeroSteadyStateAllocsPaRan2 gates PaRan2's on-line selection: each
// draw ranks the done-set's clear bits in place instead of listing the
// undone jobs, so PaRan2 at p=64 under the fair adversary also runs
// allocation-free once warmed up. A reset PaRan2 re-seeds its random
// source, so every measured run replays the warm-up trial.
func TestZeroSteadyStateAllocsPaRan2(t *testing.T) {
	const p, tasks = 64, 256
	ms := doall.NewPaRan2(p, tasks, 42)
	assertZeroSteadyStateAllocs(t, "PaRan2/fair", ms, adversary.NewFair(4), p, tasks)
}

// TestZeroSteadyStateAllocsPADelay1 repeats the PA gate at the fastest
// legal network (d = 1), where delivery and consumption interleave every
// unit — the densest recycling schedule.
func TestZeroSteadyStateAllocsPADelay1(t *testing.T) {
	const p, tasks = 64, 256
	ms := doall.NewPaRan1(p, tasks, 7)
	fair := adversary.NewFair(1)
	assertZeroSteadyStateAllocs(t, "PaRan1/fair-d1", ms, fair, p, tasks)
}

// TestZeroSteadyStateAllocsDA gates the progress-tree algorithm: DA(2) at
// p=64 under the fair adversary runs allocation-free once warmed up.
func TestZeroSteadyStateAllocsDA(t *testing.T) {
	const p, tasks = 64, 256
	ms, err := scenario.Scenario{Algorithm: scenario.AlgoDA, P: p, T: tasks, D: 4, Seed: 42}.Machines()
	if err != nil {
		t.Fatal(err)
	}
	assertZeroSteadyStateAllocs(t, "DA/fair", ms, adversary.NewFair(4), p, tasks)
}

// TestResetReplaysExactly pins what the allocation gates rely on: a reset
// machine set (PaRan2 included: its source re-seeds) re-run on a reused
// engine reproduces the fresh-build Result byte for byte, trial after
// trial.
func TestResetReplaysExactly(t *testing.T) {
	const p, tasks = 16, 64
	for _, algo := range []string{scenario.AlgoAllToAll, scenario.AlgoObliDo, scenario.AlgoDA, scenario.AlgoPaRan1, scenario.AlgoPaRan2, scenario.AlgoPaDet} {
		sc := scenario.Scenario{Algorithm: algo, P: p, T: tasks, D: 3, Seed: 5}
		out, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		fresh := out.Sim
		ms, err := sc.Machines()
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		for trial := 0; trial < 3; trial++ {
			if !sim.ResetMachines(ms) {
				t.Fatalf("%s: not resettable", algo)
			}
			res, err := eng.Run(sim.Config{P: p, T: tasks}, ms, adversary.NewFair(3))
			if err != nil {
				t.Fatalf("%s trial %d: %v", algo, trial, err)
			}
			if res.Work != fresh.Work || res.Messages != fresh.Messages || res.SolvedAt != fresh.SolvedAt {
				t.Fatalf("%s trial %d diverged: fresh work=%d msgs=%d σ=%d, reset work=%d msgs=%d σ=%d",
					algo, trial, fresh.Work, fresh.Messages, fresh.SolvedAt, res.Work, res.Messages, res.SolvedAt)
			}
		}
	}
}

// TestZeroSteadyStateAllocsPA1024 extends the PA gate to p=1024 under
// the grouped delivery path and the versioned-snapshot payload
// lifecycle: batches, combined knowledge caches, snapshot delta chains,
// epoch bases, and the batch ring must all come from warmed pools, so a
// whole re-run still allocates exactly nothing.
func TestZeroSteadyStateAllocsPA1024(t *testing.T) {
	const p, tasks = 1024, 4096
	ms := doall.NewPaRan1(p, tasks, 42)
	assertZeroSteadyStateAllocs(t, "PaRan1-1024/fair", ms, adversary.NewFair(4), p, tasks)
}

// TestZeroSteadyStateAllocsSharded1024 gates the parallel tick engine: a
// sharded run at p=1024 must hit the same zero-allocation steady state as
// the sequential one. The shard machinery is pre-grown in reset (worker
// goroutines are launched once and parked on their wake channels; scratch,
// shadow-batch, and per-step result slices are reused), so once warmed,
// a whole re-run — wake sends, WaitGroup handoffs, shadow seeding, and the
// phase-B replay included — allocates exactly nothing per worker shard.
func TestZeroSteadyStateAllocsSharded1024(t *testing.T) {
	const p, tasks = 1024, 4096
	for _, shards := range []int{2, 4} {
		ms := doall.NewPaRan1(p, tasks, 42)
		assertZeroSteadyStateAllocsCfg(t, fmt.Sprintf("PaRan1-1024/fair-shards%d", shards),
			ms, adversary.NewFair(4), sim.Config{P: p, T: tasks, Shards: shards})
	}
}

// TestZeroSteadyStateAllocsDA1024 is the DA gate at p=1024: tree
// snapshot chains and closure propagation must also be allocation-free
// in steady state.
func TestZeroSteadyStateAllocsDA1024(t *testing.T) {
	const p, tasks = 1024, 4096
	ms, err := scenario.Scenario{Algorithm: scenario.AlgoDA, P: p, T: tasks, D: 4, Seed: 42}.Machines()
	if err != nil {
		t.Fatal(err)
	}
	assertZeroSteadyStateAllocs(t, "DA-1024/fair", ms, adversary.NewFair(4), p, tasks)
}

// TestLargeShapeSmokePaRan1 is the large-shape smoke cell CI runs as a
// dedicated -short job: one PaRan1 p=2048/t=65536 sweep cell through the
// public Scenario path, solved and plausible. Full (non-short) runs add
// a second execution to pin determinism at scale; the short job skips it
// so the smoke stays a single cell (and the -race job pays for one run,
// not two).
func TestLargeShapeSmokePaRan1(t *testing.T) {
	sc := doall.Scenario{Algorithm: "PaRan1", P: 2048, T: 65536, D: 8, Seed: 7}
	res, err := doall.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved() || res.Work() <= 65536 {
		t.Fatalf("large-shape cell implausible: solved=%v work=%d", res.Solved(), res.Work())
	}
	if testing.Short() {
		return
	}
	// Determinism at scale: a second run reproduces exactly.
	again, err := doall.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Work() != res.Work() || again.Messages() != res.Messages() {
		t.Fatalf("large shape not deterministic: work %d→%d messages %d→%d",
			res.Work(), again.Work(), res.Messages(), again.Messages())
	}
}

package scenario

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"doall/internal/bounds"
	"doall/internal/sim"
)

// TestSweepAdversaryGrid exercises the adversary-expression axis: every
// algorithm cell is measured under each expression, cells record their
// adversary, and crashing/slow-set are reachable from a sweep.
func TestSweepAdversaryGrid(t *testing.T) {
	cfg := SweepConfig{
		Algos:       []string{AlgoPaRan1},
		Ps:          []int{4},
		Ts:          []int{16},
		Ds:          []int64{2},
		Adversaries: []string{"fair", "crashing", "slow-set(period=2)"},
		BaseSeed:    3,
	}
	cells := RunSweep(cfg)
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	for i, want := range cfg.Adversaries {
		c := cells[i]
		if c.Adversary != want {
			t.Errorf("cell %d adversary = %q, want %q", i, c.Adversary, want)
		}
		if c.Err != "" {
			t.Errorf("cell %d (%s) failed: %s", i, want, c.Err)
		}
		if c.Work <= 0 {
			t.Errorf("cell %d (%s): work %v", i, want, c.Work)
		}
	}
	// Same seed, same machines: the slow-set run must cost at least as
	// much time as the fair run (slow processors stretch the execution).
	if cells[2].SolvedAt < cells[0].SolvedAt {
		t.Errorf("slow-set solved at %v before fair's %v", cells[2].SolvedAt, cells[0].SolvedAt)
	}
	rep := NewSweepReport(cfg)
	if rep.Adversary != "fair;crashing;slow-set(period=2)" {
		t.Errorf("report adversary = %q", rep.Adversary)
	}
}

// TestSweepTheoryEpsilonFollowsQ pins the ε-from-q wiring end to end: a
// q-less sweep stamps Q=0 (so recorded baselines re-serialize
// byte-identically) and computes the DA theory column with the default
// ε = 0.5, while a q=8 sweep of the same grid point stamps Q and uses
// EpsilonForQ(8) — the bug this replaces hardcoded 0.5 for every q.
func TestSweepTheoryEpsilonFollowsQ(t *testing.T) {
	base := SweepConfig{
		Algos: []string{AlgoDA}, Ps: []int{8}, Ts: []int{32}, Ds: []int64{2},
		BaseSeed: 5, Theory: true,
	}
	def := RunSweep(base)[0]
	if def.Err != "" {
		t.Fatalf("default cell failed: %s", def.Err)
	}
	if def.Q != 0 {
		t.Fatalf("q-less sweep stamped Q=%d, want 0 (baseline schema compat)", def.Q)
	}
	if want := bounds.DAUpperBound(8, 32, 2, 0.5); def.DAUpperBound != want {
		t.Fatalf("default DA theory column %v, want ε=0.5 value %v", def.DAUpperBound, want)
	}

	wide := base
	wide.Q = 8
	w := RunSweep(wide)[0]
	if w.Err != "" {
		t.Fatalf("q=8 cell failed: %s", w.Err)
	}
	if w.Q != 8 {
		t.Fatalf("q=8 sweep stamped Q=%d", w.Q)
	}
	if want := bounds.DAUpperBound(8, 32, 2, bounds.EpsilonForQ(8)); w.DAUpperBound != want {
		t.Fatalf("q=8 DA theory column %v, want EpsilonForQ-derived %v", w.DAUpperBound, want)
	}
	if w.DAUpperBound == def.DAUpperBound {
		t.Fatal("q=8 and q=2 DA theory columns should differ")
	}
	// The q knob must reach the machines, not only the theory column: a
	// wider progress tree changes DA's execution.
	if w.Work == def.Work && w.Messages == def.Messages && w.SolvedAt == def.SolvedAt {
		t.Fatal("q=8 cell measured identically to q=2 cell; Q not threaded to machines")
	}
}

// TestBench0SchemaStillReadable guards the BENCH_*.json contract: the
// baseline recorded before the adversary axis existed must keep parsing
// under the extended Cell schema.
func TestBench0SchemaStillReadable(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_0.json")
	if err != nil {
		t.Skipf("BENCH_0.json not present: %v", err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_0.json no longer parses: %v", err)
	}
	if rep.Engine != "multicast-wheel" || len(rep.Cells) == 0 {
		t.Fatalf("BENCH_0.json lost shape: engine=%q cells=%d", rep.Engine, len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Algo == "" || c.P == 0 || c.T == 0 {
			t.Fatalf("cell lost fields: %+v", c)
		}
		if c.Adversary != "" {
			t.Fatalf("pre-axis cell unexpectedly has adversary %q", c.Adversary)
		}
	}
}

// TestRunOnMatchesRun pins the reusable-engine path the sweep runner
// stands on: RunOn with one shared engine reproduces Run's Result byte
// for byte across a mix of algorithms, adversaries, and shapes run back
// to back on the same engine.
func TestRunOnMatchesRun(t *testing.T) {
	scs := []Scenario{
		{Algorithm: AlgoPaRan1, P: 8, T: 32, D: 2, Seed: 3},
		{Algorithm: AlgoDA, P: 5, T: 25, D: 4, Seed: 9, Adversary: "crashing(crash=0@2)"},
		{Algorithm: AlgoPaRan2, P: 6, T: 24, D: 3, Seed: 1, Adversary: "random"},
		{Algorithm: AlgoPaRan1, P: 8, T: 32, D: 2, Seed: 3}, // repeat of the first
		{Algorithm: AlgoAllToAll, P: 3, T: 12, D: 1, Seed: 2},
	}
	eng := sim.NewEngine()
	for i, sc := range scs {
		want, errW := Run(sc)
		got, errG := RunOn(eng, sc)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("scenario %d: error mismatch: %v vs %v", i, errW, errG)
		}
		if !reflect.DeepEqual(want.Sim, got.Sim) {
			t.Fatalf("scenario %d (%s): RunOn diverged from Run:\nfresh:  %+v\nreused: %+v",
				i, sc.Algorithm, want.Sim, got.Sim)
		}
	}
}

// TestRunOnFallsBackOffSimBackend: non-sim backends take the plain Run
// path rather than failing.
func TestRunOnFallsBackOffSimBackend(t *testing.T) {
	sc := Scenario{Algorithm: AlgoPaRan1, P: 4, T: 8, D: 2, Seed: 1, Backend: BackendRuntime}
	res, err := RunOn(sim.NewEngine(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendRuntime || !res.Solved() {
		t.Fatalf("fallback run: backend=%q solved=%v", res.Backend, res.Solved())
	}
}

// TestSweepProgressCallback: the Progress hook must fire once per cell
// with a monotone completion count ending at the grid total, regardless
// of worker count.
func TestSweepProgressCallback(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		cfg := SweepConfig{
			Algos:    []string{AlgoAllToAll, AlgoPaRan1},
			Ps:       []int{2, 4},
			Ts:       []int{8},
			Ds:       []int64{1, 2},
			BaseSeed: 1,
			Workers:  workers,
			Progress: func(done, total int) {
				if total != 8 {
					t.Errorf("total = %d, want 8", total)
				}
				mu.Lock()
				seen = append(seen, done)
				mu.Unlock()
			},
		}
		cells := RunSweep(cfg)
		if len(cells) != 8 {
			t.Fatalf("%d cells, want 8", len(cells))
		}
		if len(seen) != 8 {
			t.Fatalf("workers=%d: Progress fired %d times, want 8", workers, len(seen))
		}
		sort.Ints(seen)
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: completion counts %v, want 1..8", workers, seen)
			}
		}
	}
}

// TestSweepDeterministicAcrossWorkerCounts re-asserts the sharding
// contract now that workers carry reusable engines: any worker count
// yields byte-identical cells (timings aside).
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := SweepConfig{
		Algos:    []string{AlgoPaRan1, AlgoDA},
		Ps:       []int{4, 8},
		Ts:       []int{32},
		Ds:       []int64{2},
		BaseSeed: 11,
		Trials:   2,
	}
	strip := func(cells []Cell) []Cell {
		out := append([]Cell(nil), cells...)
		for i := range out {
			out[i].NsPerRun = 0
		}
		return out
	}
	cfg.Workers = 1
	serial := strip(RunSweep(cfg))
	for _, w := range []int{3, 8} {
		cfg.Workers = w
		if got := strip(RunSweep(cfg)); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d diverged from serial:\nserial: %+v\ngot:    %+v", w, serial, got)
		}
	}
}

// TestBench0CellsReproduce re-runs the cheap corner of the committed
// BENCH_0.json grid (p=16, t=256, every algorithm including PaDet and its
// schedule search) and requires the recorded work/messages/solved_at to
// reproduce exactly. This is the cross-PR determinism contract: engine
// rewrites may only move ns_per_run, never the model quantities.
func TestBench0CellsReproduce(t *testing.T) {
	assertBenchCellsReproduce(t, "BENCH_0.json", 16, 256, 12, 1)
}

// assertBenchCellsReproduce re-runs every cell in the (p, t) corner of a
// committed baseline and requires the recorded work/messages/solved_at to
// reproduce exactly. shards is the intra-run shard count to replay under —
// recorded baselines are shard-invariant, so every value must reproduce
// the same bytes.
func assertBenchCellsReproduce(t *testing.T, file string, p, tasks, wantChecked, shards int) {
	t.Helper()
	data, err := os.ReadFile("../../" + file)
	if err != nil {
		t.Skipf("%s not present: %v", file, err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	checked := 0
	eng := sim.NewEngine()
	for _, c := range rep.Cells {
		if c.P != p || c.T != tasks {
			continue
		}
		adv := c.Adversary
		if adv == "" {
			adv = rep.Adversary // pre-adversary-axis baselines (BENCH_0)
		}
		sc := Scenario{Algorithm: c.Algo, Adversary: adv, P: c.P, T: c.T, D: c.D, Seed: c.Seed, Shards: shards}
		got, _ := RunCellOn(context.Background(), eng, sc, c.Trials, false)
		if got.Err != "" {
			t.Fatalf("cell %s/d=%d failed: %s", c.Algo, c.D, got.Err)
		}
		if got.Work != c.Work || got.Messages != c.Messages || got.SolvedAt != c.SolvedAt {
			t.Errorf("cell %s/d=%d diverged from %s: work %v→%v, messages %v→%v, solved_at %v→%v",
				c.Algo, c.D, file, c.Work, got.Work, c.Messages, got.Messages, c.SolvedAt, got.SolvedAt)
		}
		checked++
	}
	if checked != wantChecked {
		t.Fatalf("checked %d cells, want %d (grid layout changed?)", checked, wantChecked)
	}
}

// TestBench1CellsReproduce extends the determinism contract to the
// BENCH_1.json baseline recorded by PR 3: the p=64, t=256 corner must
// reproduce exactly under the versioned knowledge plane and the grouped
// delivery engine.
func TestBench1CellsReproduce(t *testing.T) {
	assertBenchCellsReproduce(t, "BENCH_1.json", 64, 256, 12, 1)
}

// TestBench2CellsReproduce extends the determinism contract to the
// BENCH_2.json large-shape baseline: its p=1024, t=65536 corner (PaRan1
// and DA across all three d values) must reproduce exactly under the
// fault-plane engine — crash-restart and omission support may add no
// observable drift to fault-free executions.
func TestBench2CellsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures large shapes")
	}
	assertBenchCellsReproduce(t, "BENCH_2.json", 1024, 65536, 6, 1)
}

// TestBench2CellsReproduceSharded replays the same BENCH_2 corner under
// the parallel tick engine (4 shards): sharding is a pure execution
// strategy, so the recorded baseline must reproduce byte-identically at
// any shard count.
func TestBench2CellsReproduceSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures large shapes")
	}
	assertBenchCellsReproduce(t, "BENCH_2.json", 1024, 65536, 6, 4)
}

// TestBench3SchemaReadable guards the BENCH_3.json p=65536 sharding-era
// baseline: it must parse, carry the theory columns, stamp gomaxprocs
// and the per-cell resolved shard count, and reach t=2^22.
func TestBench3SchemaReadable(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_3.json")
	if err != nil {
		t.Skipf("BENCH_3.json not present: %v", err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_3.json no longer parses: %v", err)
	}
	if !rep.Theory {
		t.Fatal("BENCH_3.json lost its theory marker")
	}
	if rep.GoMaxProcs < 1 {
		t.Fatalf("BENCH_3.json gomaxprocs = %d, want ≥ 1", rep.GoMaxProcs)
	}
	maxT := 0
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s p=%d t=%d d=%d recorded an error: %s", c.Algo, c.Adversary, c.P, c.T, c.D, c.Err)
		}
		if c.P != 65536 {
			t.Errorf("cell %s t=%d: p = %d, want 65536", c.Algo, c.T, c.P)
		}
		if c.Shards < 1 {
			t.Errorf("cell %s/%s t=%d missing its resolved shards stamp", c.Algo, c.Adversary, c.T)
		}
		if c.LowerBound <= 0 || c.WorkOverLB <= 0 {
			t.Errorf("cell %s/%s t=%d missing theory columns", c.Algo, c.Adversary, c.T)
		}
		if c.T > maxT {
			maxT = c.T
		}
	}
	if maxT < 4194304 {
		t.Fatalf("BENCH_3 grid tops out at t=%d, want ≥ 4194304 (2^22)", maxT)
	}
}

// TestBench2SchemaReadable guards the BENCH_2.json large-shape baseline:
// it must parse, carry the theory columns, and extend the grid to
// p=4096, t=262144.
func TestBench2SchemaReadable(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2.json")
	if err != nil {
		t.Skipf("BENCH_2.json not present: %v", err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_2.json no longer parses: %v", err)
	}
	if !rep.Theory {
		t.Fatal("BENCH_2.json lost its theory marker")
	}
	maxP, maxT := 0, 0
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Errorf("cell %s p=%d t=%d d=%d recorded an error: %s", c.Algo, c.P, c.T, c.D, c.Err)
		}
		if c.LowerBound <= 0 || c.WorkOverLB <= 0 {
			t.Errorf("cell %s p=%d t=%d d=%d missing theory columns", c.Algo, c.P, c.T, c.D)
		}
		if c.P > maxP {
			maxP = c.P
		}
		if c.T > maxT {
			maxT = c.T
		}
	}
	if maxP < 4096 || maxT < 262144 {
		t.Fatalf("BENCH_2 grid tops out at p=%d t=%d, want ≥ 4096/262144", maxP, maxT)
	}
}

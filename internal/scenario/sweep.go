package scenario

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doall/internal/bounds"
	"doall/internal/sim"
)

// SweepConfig declares an (algorithm, adversary, p, t, d) grid to measure.
// The sweep runner is the scale harness behind the doall sweep command and
// the BENCH_*.json perf baselines: it fans the grid's cells across worker
// goroutines (cells are independent simulations, so sharding is trivially
// safe) while keeping every cell's seed — and therefore every cell's
// Result — deterministic regardless of worker count or scheduling.
type SweepConfig struct {
	// Algos, Ps, Ts, Ds span the grid; every combination is one cell.
	Algos []string
	Ps    []int
	Ts    []int
	Ds    []int64
	// Adversary applies to every cell (default "fair") when Adversaries
	// is empty.
	Adversary string
	// Adversaries, when non-empty, adds an adversary-expression axis to
	// the grid: every cell is measured under every listed expression.
	Adversaries []string
	// BaseSeed feeds the per-cell seed derivation (CellSeed).
	BaseSeed int64
	// Trials runs each cell this many times with seeds seed, seed+1, …
	// and averages (default 1).
	Trials int
	// Workers bounds sweep concurrency; 0 means GOMAXPROCS.
	Workers int
	// MaxSteps overrides the simulator step cap per run (0 = default).
	MaxSteps int64
	// Shards is each cell's intra-run parallelism (Scenario.Shards): 0/1
	// sequential, ShardsAuto resolves per cell from GOMAXPROCS and the
	// cell's p. Shards changes only wall-clock time (NsPerRun); every
	// model measure is byte-identical at any value, so it does not enter
	// cell seeds. Intra-run shards multiply with sweep Workers — prefer
	// Workers for wide grids and Shards for grids of few huge cells.
	Shards int
	// Q is each cell's DA progress-tree arity (Scenario.Q); 0 means the
	// default binary tree. Like the adversary axis it is deliberately not
	// folded into cell seeds, so DA(q) variants of a cell stay seed-
	// comparable with the recorded q = 2 baselines.
	Q int
	// Theory adds the paper's closed-form curves to every cell:
	// LowerBound (Theorems 3.1/3.4), DAUpperBound (Theorem 5.5 with
	// ε derived from the cell's q via bounds.EpsilonForQ — ε = 0.5 at the
	// default q = 2, as in experiment E6), PAUpperBound (Theorems
	// 6.2/6.3), and the work/LowerBound overhead ratio, so BENCH files
	// carry measured-vs-theory columns.
	Theory bool
	// TickPhase, when non-nil, receives the summed parallel-tick phase
	// profile (sim.Engine.PhaseProfile) of every worker engine once the
	// sweep returns: how the sharded cells' wall-clock split across the
	// serial prefix (A1), the parallel shard stepping (A2), and the
	// serial reduction tail (B). Zero for fully sequential sweeps.
	TickPhase *sim.TickPhaseProfile
	// Progress, when non-nil, is invoked after every completed cell with
	// the number of cells finished so far and the grid total, driven off
	// the sweep's atomic completion counter. It is called concurrently
	// from worker goroutines and must be safe for concurrent use;
	// (done, total) pairs arrive in completion order, which under
	// sharding is not grid order. Keep it cheap — it runs on the workers'
	// critical path.
	Progress func(done, total int)
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Adversary == "" {
		c.Adversary = AdvFair
	}
	if len(c.Adversaries) == 0 {
		c.Adversaries = []string{c.Adversary}
	}
	if c.Trials < 1 {
		c.Trials = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Cell is one measured grid point of a sweep.
type Cell struct {
	Algo string `json:"algo"`
	// Adversary is the cell's adversary expression. Baselines recorded
	// before the adversary axis existed (BENCH_0.json) omit it; empty
	// means the report-wide adversary.
	Adversary string `json:"adversary,omitempty"`
	P         int    `json:"p"`
	T         int    `json:"t"`
	D         int64  `json:"d"`
	// Q is the DA progress-tree arity the cell ran with; 0 (omitted, as
	// in every baseline recorded before the q knob) means the default
	// binary tree. The DAUpperBound theory column derives its ε from it.
	Q      int   `json:"q,omitempty"`
	Seed   int64 `json:"seed"`
	Trials int   `json:"trials"`
	// Work, Messages, and SolvedAt are trial averages of the paper's
	// complexity measures (Definitions 2.1/2.2).
	Work     float64 `json:"work"`
	Messages float64 `json:"messages"`
	SolvedAt float64 `json:"solved_at"`
	// NsPerRun is wall-clock nanoseconds per simulation run (engine
	// throughput, not a model quantity).
	NsPerRun int64 `json:"ns_per_run"`
	// Shards is the resolved intra-run shard count the cell executed
	// with (1 = sequential engine; omitted in pre-parallel baselines).
	// It contextualizes NsPerRun only — model measures are shard-
	// invariant.
	Shards int `json:"shards,omitempty"`
	// Theory columns (present when SweepConfig.Theory): the paper's
	// closed-form curves at this cell's shape and the measured-over-lower-
	// bound overhead ratio. Bounds hide constants, so only growth and
	// crossovers are meaningful.
	LowerBound   float64 `json:"lower_bound,omitempty"`
	DAUpperBound float64 `json:"da_upper_bound,omitempty"`
	PAUpperBound float64 `json:"pa_upper_bound,omitempty"`
	WorkOverLB   float64 `json:"work_over_lb,omitempty"`
	// Predicted columns (present when the caller stamps an analytical
	// twin's estimates next to the measured values, e.g. doall sweep
	// -twin): the twin's point predictions for the cell's shape. Absent
	// when no twin was supplied or the shape is outside its envelope.
	PredWork     float64 `json:"pred_work,omitempty"`
	PredMessages float64 `json:"pred_messages,omitempty"`
	PredSolvedAt float64 `json:"pred_solved_at,omitempty"`
	// Err is non-empty when the cell failed (e.g. step cap exceeded).
	Err string `json:"err,omitempty"`
}

// CellSeed derives the deterministic seed of one grid cell: an FNV-1a
// hash of the cell coordinates folded with the base seed, so a cell's
// randomness depends only on what the cell is, never on sweep order,
// worker count, or which other cells share the grid. The adversary axis
// is deliberately not folded in: the same cell under different
// adversaries runs the same machines, isolating the adversary's effect
// (and keeping seeds comparable with pre-axis baselines).
func CellSeed(base int64, algo string, p, t int, d int64) int64 {
	h := fnv.New64a()
	io.WriteString(h, algo)
	var buf [8]byte
	for _, v := range []int64{int64(p), int64(t), d, base} {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	s := int64(h.Sum64() >> 1) // keep it non-negative
	if s == 0 {
		s = 1
	}
	return s
}

// Specs enumerates the grid cells as Scenarios in deterministic order
// (algorithm-major, then adversary, then p, t, d).
func (c SweepConfig) Specs() []Scenario {
	c = c.withDefaults()
	specs := make([]Scenario, 0, len(c.Algos)*len(c.Adversaries)*len(c.Ps)*len(c.Ts)*len(c.Ds))
	for _, algo := range c.Algos {
		for _, adv := range c.Adversaries {
			for _, p := range c.Ps {
				for _, t := range c.Ts {
					for _, d := range c.Ds {
						specs = append(specs, Scenario{
							Algorithm: algo,
							Adversary: adv,
							P:         p,
							T:         t,
							D:         d,
							Q:         c.Q,
							Seed:      CellSeed(c.BaseSeed, algo, p, t, d),
							MaxSteps:  c.MaxSteps,
							Shards:    c.Shards,
						})
					}
				}
			}
		}
	}
	return specs
}

// RunSweep measures every cell of the grid, sharding cells across Workers
// goroutines via a shared cursor. Results are returned in Specs order and
// are byte-for-byte identical for any worker count: each cell builds its
// own machines and adversary from its own derived seed, so no state is
// shared between shards. Each worker owns one reusable simulation engine
// (sim.Engine) carried across all of its cells and trials, so the wheel
// buckets, inboxes, result arrays, and multicast pool are allocated once
// per worker instead of once per run — buffer reuse that the engine
// guarantees is invisible in the Results.
func RunSweep(c SweepConfig) []Cell {
	cells, _ := RunSweepContext(context.Background(), c)
	return cells
}

// RunSweepContext is RunSweep with cooperative cancellation: when ctx ends,
// workers stop claiming cells and the current cell aborts at its next trial
// boundary. The returned error is ctx.Err() (nil for a complete sweep);
// cells that never ran, or were cut short mid-cell, carry the context error
// in Cell.Err with their identity columns intact, so a partial report stays
// schema-valid and shows exactly what is missing. Cancellation granularity
// is one trial: a single enormous cell is bounded by MaxSteps, not by ctx.
// With a background context the behavior — and every byte of the result —
// is identical to RunSweep's.
func RunSweepContext(ctx context.Context, c SweepConfig) ([]Cell, error) {
	c = c.withDefaults()
	specs := c.Specs()
	cells := make([]Cell, len(specs))
	ran := make([]bool, len(specs))
	workers := c.Workers
	if workers > len(specs) {
		workers = len(specs)
	}
	var cursor, completed atomic.Int64
	var wg sync.WaitGroup
	var phaseMu sync.Mutex
	var phase sim.TickPhaseProfile
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine()
			// Sharded cells park shard-worker goroutines on the engine;
			// without the Close a wide sweep would strand workers-1 × shards-1
			// goroutines until process exit.
			defer eng.Close()
			defer func() {
				// Fresh engine per worker, so its lifetime profile is
				// exactly this worker's contribution.
				p := eng.PhaseProfile()
				phaseMu.Lock()
				phase.A1 += p.A1
				phase.A2 += p.A2
				phase.B += p.B
				phase.Ticks += p.Ticks
				phaseMu.Unlock()
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(specs) || ctx.Err() != nil {
					return
				}
				cells[i], _ = RunCellOn(ctx, eng, specs[i], c.Trials, c.Theory)
				ran[i] = true
				if done := int(completed.Add(1)); c.Progress != nil {
					c.Progress(done, len(specs))
				}
			}
		}()
	}
	wg.Wait()
	if c.TickPhase != nil {
		*c.TickPhase = phase
	}
	if err := ctx.Err(); err != nil {
		// Stamp identity columns onto the cells that never ran so the
		// partial report still names every grid point.
		for i := range cells {
			if !ran[i] {
				sc := specs[i]
				cells[i] = Cell{
					Algo: sc.Algorithm, Adversary: sc.Adversary,
					P: sc.P, T: sc.T, D: sc.D, Seed: sc.Seed, Trials: c.Trials,
					Err: err.Error(),
				}
			}
		}
		return cells, err
	}
	return cells, nil
}

// RunCellOn executes one grid cell — trials runs with seeds sc.Seed,
// sc.Seed+1, … on the caller's reusable engine — and averages the
// measures, optionally adding the closed-form theory columns. It is the
// unit of work the sweep runner shards across workers, exported so the
// service plane can run (and checkpoint) a sweep cell by cell: because a
// cell's seed is derived from its coordinates alone, running cells
// individually, in any order, on any engine, reproduces RunSweep's cells
// exactly (NsPerRun, a wall-clock observation, excepted). ctx cancels at
// trial boundaries; a canceled cell reports ctx's error, never a partial
// average.
//
// The Tally sums the whole-run counts of every simulator run the cell
// executed, a failed trial's partial Result included, so counting
// consumers (the service's metrics) need no Observer and the runs stay
// on the engine's grouped, staged fast path.
func RunCellOn(ctx context.Context, eng *sim.Engine, sc Scenario, trials int, theory bool) (Cell, Tally) {
	if trials < 1 {
		trials = 1
	}
	cell := Cell{
		Algo: sc.Algorithm, Adversary: sc.Adversary,
		// Q is stamped raw (not defaulted to 2) so cells from q-less
		// configs serialize exactly as the recorded baselines do.
		P: sc.P, T: sc.T, D: sc.D, Q: sc.Q, Seed: sc.Seed, Trials: trials,
		Shards: ResolveShards(sc.Shards, sc.P),
	}
	var tally Tally
	start := time.Now()
	for i := 0; i < trials; i++ {
		if err := ctx.Err(); err != nil {
			cell.Work, cell.Messages, cell.SolvedAt = 0, 0, 0
			cell.Err = err.Error()
			return cell, tally
		}
		run := sc
		run.Seed = sc.Seed + int64(i)
		res, err := RunOn(eng, run)
		if res != nil && res.Sim != nil {
			tally.add(res.Sim)
		}
		if err != nil {
			// Drop the partial sums: a failed cell reports only its error,
			// never a misleading fraction of an average.
			cell.Work, cell.Messages, cell.SolvedAt = 0, 0, 0
			cell.Err = err.Error()
			return cell, tally
		}
		cell.Work += float64(res.Sim.Work)
		cell.Messages += float64(res.Sim.Messages)
		cell.SolvedAt += float64(res.Sim.SolvedAt)
	}
	cell.NsPerRun = time.Since(start).Nanoseconds() / int64(trials)
	cell.Work /= float64(trials)
	cell.Messages /= float64(trials)
	cell.SolvedAt /= float64(trials)
	if theory {
		addTheory(&cell)
	}
	return cell, tally
}

// Tally sums whole-run simulator counts over the runs of a cell: Solved
// counts solved runs, the rest sum the sim.Result field of the same name
// (Steps = TotalSteps, Messages = TotalMessages).
type Tally struct {
	Solved, Steps, Messages, Multicasts, Crashes, Revivals, Omissions int64
}

func (t *Tally) add(r *sim.Result) {
	if r.Solved {
		t.Solved++
	}
	t.Steps += r.TotalSteps
	t.Messages += r.TotalMessages
	t.Multicasts += r.Multicasts
	t.Crashes += r.Crashes
	t.Revivals += r.Revivals
	t.Omissions += r.Omissions
}

// addTheory fills a cell's closed-form theory columns. The DA bound's ε
// follows the cell's progress-tree arity per Theorem 5.5 (EpsilonForQ);
// an unset q yields the default binary tree's ε = 0.5, which is what
// every recorded BENCH_*.json theory column was computed with.
func addTheory(c *Cell) {
	p, t, d := c.P, c.T, int(c.D)
	c.LowerBound = bounds.LowerBound(p, t, d)
	c.DAUpperBound = bounds.DAUpperBound(p, t, d, bounds.EpsilonForQ(c.Q))
	c.PAUpperBound = bounds.PAUpperBound(p, t, d)
	if c.Err == "" {
		c.WorkOverLB = bounds.Overhead(int64(c.Work), c.LowerBound)
	}
}

// SweepReport is the JSON envelope written by the doall sweep command;
// BENCH_*.json files at the repo root follow this schema so successive
// PRs can compare per-cell work/messages/ns trajectories.
type SweepReport struct {
	// Engine identifies the execution engine that produced the numbers.
	Engine string `json:"engine"`
	// GoMaxProcs records the worker ceiling the sweep ran under.
	GoMaxProcs int `json:"gomaxprocs"`
	// Shards is the requested intra-run shard policy (ShardsAuto = -1);
	// each cell additionally records its resolved count. Omitted (0) in
	// baselines recorded before the parallel tick engine.
	Shards int `json:"shards,omitempty"`
	// Adversary is the grid's adversary axis: one expression, or several
	// joined with ";".
	Adversary string `json:"adversary"`
	// BaseSeed reproduces the sweep exactly.
	BaseSeed int64 `json:"base_seed"`
	// Theory records whether the cells carry closed-form theory columns.
	Theory bool `json:"theory,omitempty"`
	// Partial marks a report flushed after cancellation (wall-clock
	// timeout or SIGINT): cells that never ran carry the cancellation
	// error instead of measurements. Complete reports omit it.
	Partial bool `json:"partial,omitempty"`
	// TickPhase is the summed parallel-tick phase breakdown across all
	// worker engines (seconds per phase plus the parallel tick count).
	// Omitted when the sweep never entered the parallel tick engine.
	TickPhase *TickPhaseStamp `json:"tick_phase_seconds,omitempty"`
	Cells     []Cell          `json:"cells"`
}

// TickPhaseStamp is the serialized form of sim.TickPhaseProfile: seconds
// the sweep's engines spent in each parallel-tick phase (A1 serial
// prefix, A2 parallel shard stepping, B serial reduction tail) and the
// number of parallel ticks they executed.
type TickPhaseStamp struct {
	A1Seconds float64 `json:"a1"`
	A2Seconds float64 `json:"a2"`
	BSeconds  float64 `json:"b"`
	Ticks     int64   `json:"ticks"`
}

// NewSweepReport runs the sweep and wraps it for serialization.
func NewSweepReport(c SweepConfig) SweepReport {
	r, _ := NewSweepReportContext(context.Background(), c)
	return r
}

// NewSweepReportContext runs the sweep under ctx and wraps whatever
// completed for serialization. When ctx ends before the grid does, the
// report is still well-formed — measured cells keep their numbers, unrun
// cells carry the cancellation error — and is marked Partial; the ctx
// error is returned alongside so callers can flush the partial report and
// still exit non-zero.
func NewSweepReportContext(ctx context.Context, c SweepConfig) (SweepReport, error) {
	c = c.withDefaults()
	var phase sim.TickPhaseProfile
	if c.TickPhase == nil {
		c.TickPhase = &phase
	}
	cells, err := RunSweepContext(ctx, c)
	rep := SweepReport{
		Engine:     "multicast-wheel-grouped",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     c.Shards,
		Adversary:  strings.Join(c.Adversaries, ";"),
		BaseSeed:   c.BaseSeed,
		Theory:     c.Theory,
		Partial:    err != nil,
		Cells:      cells,
	}
	if p := *c.TickPhase; p.Ticks > 0 {
		rep.TickPhase = &TickPhaseStamp{
			A1Seconds: p.A1.Seconds(),
			A2Seconds: p.A2.Seconds(),
			BSeconds:  p.B.Seconds(),
			Ticks:     p.Ticks,
		}
	}
	return rep, err
}

// WriteJSON serializes the report with stable formatting.
func (r SweepReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

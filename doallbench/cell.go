package main

import (
	"fmt"
	"runtime"
	"time"

	"doall"
)

// counts are the model quantities of one run, copied out of the
// engine-owned Result. They repeat exactly for a seed.
type counts struct {
	work, messages, solvedAt   int64
	steps, totalMessages       int64
	bytes, primary, executions int64
}

// cellRun is one cell executed directly through the public API the way
// the sweep runner executes it (build machines, build the adversary, run
// on an engine), with the boundary timestamps of each layer.
type cellRun struct {
	sc                               doall.Scenario
	start, built, advBuilt, ran, end time.Time
	buildAlloc                       uint64
	gc                               gcStats
	a1, a2, b                        time.Duration
	ticks                            int64
	counts                           counts
	peakHeap                         uint64 // probe runs only
	estimate                         int64  // probe runs only
}

func (c cellRun) buildTime() time.Duration { return c.built.Sub(c.start) }
func (c cellRun) runTime() time.Duration   { return c.ran.Sub(c.advBuilt) }
func (c cellRun) wall() time.Duration      { return c.end.Sub(c.start) }

// record stores the cell's spans: cell ⊃ scenario.machines,
// scenario.adversary, sim.run (+ unattributed).
func (c cellRun) record(tr *tracer, trace int) {
	tr.root(trace, "cell", c.start, c.end, []child{
		{"scenario.machines", c.start, c.built},
		{"scenario.adversary", c.built, c.advBuilt},
		{"sim.run", c.advBuilt, c.ran},
	})
}

// runCell builds and runs one cell. A nil eng means a fresh engine for
// this cell alone, created and closed inside the cell's wall time, as a
// one-cell sweep does. probe additionally measures the cell's heap peak
// over a GC'd baseline (which perturbs its timings) and the admission
// estimate for the same shape.
func runCell(eng *doall.SimEngine, sc doall.Scenario, probe bool) (cellRun, error) {
	sc = sc.WithDefaults()
	c := cellRun{sc: sc}
	var sampler *heapPeakSampler
	var base uint64
	if probe {
		c.estimate = doall.EstimateSweepMemory(oneCell(sc, 0))
		runtime.GC()
		base = heapObjectBytes()
		sampler = startHeapSampler()
		defer sampler.finish()
	}
	g0 := readGC()
	c.start = time.Now()
	own := eng == nil
	if own {
		eng = doall.NewSimEngine()
		defer func() {
			if own {
				eng.Close() // error paths; the success path closes inside the cell's time
			}
		}()
	}
	p0 := eng.PhaseProfile()
	ms, err := sc.Machines()
	c.built = time.Now()
	if err != nil {
		return c, fmt.Errorf("%s: machines: %w", cellName(sc), err)
	}
	c.buildAlloc = readGC().allocBytes - g0.allocBytes
	adv, err := sc.BuildAdversary()
	c.advBuilt = time.Now()
	if err != nil {
		return c, fmt.Errorf("%s: adversary: %w", cellName(sc), err)
	}
	res, err := eng.Run(doall.SimConfig{
		P: sc.P, T: sc.T, MaxSteps: sc.MaxSteps, Shards: doall.ResolveShards(sc.Shards, sc.P),
	}, ms, adv)
	c.ran = time.Now()
	if err == nil {
		err = checkResult(sc, res)
	}
	if err != nil {
		return c, fmt.Errorf("%s: %w", cellName(sc), err)
	}
	p1 := eng.PhaseProfile()
	c.a1, c.a2, c.b, c.ticks = p1.A1-p0.A1, p1.A2-p0.A2, p1.B-p0.B, p1.Ticks-p0.Ticks
	c.counts = counts{
		work: res.Work, messages: res.Messages, solvedAt: res.SolvedAt,
		steps: res.TotalSteps, totalMessages: res.TotalMessages,
		bytes: res.Bytes, primary: res.PrimaryExecutions, executions: res.TaskExecutions,
	}
	if probe {
		runtime.GC()
		live := heapObjectBytes()
		runtime.KeepAlive(ms)
		if peak := sampler.finish(); peak > live {
			live = peak
		}
		if live > base {
			c.peakHeap = live - base
		}
	}
	if own {
		eng.Close()
		own = false
	}
	c.end = time.Now()
	c.gc = readGC().sub(g0)
	return c, nil
}

// checkResult is the correctness gate every cell passes: the run solved
// Do-All without an early halt, every task was first performed no later
// than the solving instant, and the Result's counters agree with each
// other.
func checkResult(sc doall.Scenario, r *doall.Result) error {
	switch {
	case !r.Solved:
		return fmt.Errorf("not solved")
	case r.HaltedEarly:
		return fmt.Errorf("a processor halted before the problem was solved")
	case len(r.FirstDoneAt) != sc.T || len(r.PerProcWork) != sc.P:
		return fmt.Errorf("result arrays sized %d/%d, want t=%d/p=%d", len(r.FirstDoneAt), len(r.PerProcWork), sc.T, sc.P)
	}
	for z, at := range r.FirstDoneAt {
		if at < 0 || at > r.SolvedAt {
			return fmt.Errorf("task %d first done at %d, outside [0, solved_at=%d]", z, at, r.SolvedAt)
		}
	}
	var sum int64
	for _, w := range r.PerProcWork {
		sum += w
	}
	switch {
	case sum != r.TotalSteps:
		return fmt.Errorf("Σ per-processor work %d != total steps %d", sum, r.TotalSteps)
	case r.Work > r.TotalSteps:
		return fmt.Errorf("work %d > total steps %d", r.Work, r.TotalSteps)
	case r.Messages > r.TotalMessages:
		return fmt.Errorf("messages %d > total messages %d", r.Messages, r.TotalMessages)
	case r.PrimaryExecutions+r.SecondaryExecutions != r.TaskExecutions:
		return fmt.Errorf("primary %d + secondary %d != executions %d", r.PrimaryExecutions, r.SecondaryExecutions, r.TaskExecutions)
	case r.TaskExecutions < int64(sc.T):
		return fmt.Errorf("%d task executions < t=%d", r.TaskExecutions, sc.T)
	}
	return nil
}

// sameModel reports whether a sweep or daemon cell carries the same
// work, messages and solving time as a direct run of its scenario.
func sameModel(cell doall.SweepCell, c counts) bool {
	return cell.Err == "" && cell.Work == float64(c.work) &&
		cell.Messages == float64(c.messages) && cell.SolvedAt == float64(c.solvedAt)
}

func cellName(sc doall.Scenario) string {
	return fmt.Sprintf("%s/%s/p=%d/t=%d/d=%d", sc.Algorithm, sc.Adversary, sc.P, sc.T, sc.D)
}

// oneCell is the one-cell sweep that measures scenario sc: one worker,
// shards resolved from GOMAXPROCS and p. Its cell seed equals sc.Seed
// when sc came from a grid with the same base seed.
func oneCell(sc doall.Scenario, seed int64) doall.SweepConfig {
	return doall.SweepConfig{
		Algos: []string{sc.Algorithm}, Adversaries: []string{sc.Adversary},
		Ps: []int{sc.P}, Ts: []int{sc.T}, Ds: []int64{sc.D},
		BaseSeed: seed, Workers: 1, Shards: doall.ShardsAuto,
	}
}

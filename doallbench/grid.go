package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"doall"
)

// gridWorkload is a closed loop over sweep cells: one cell at a time,
// each through doall.RunSweepContext as a one-cell sweep, pass after pass
// over the same grid.
type gridWorkload struct {
	grids []doall.SweepConfig // the measured cells, in pass order
	warm  []doall.SweepConfig // the warm-up pass timed as set-up
}

// fairGrid stresses the grouped delivery path, the sharded tick and the
// knowledge merges (DA), and construction (PaRan1's permutations at
// p=4096, PaDet's schedule search).
func fairGrid() gridWorkload {
	return gridWorkload{
		grids: []doall.SweepConfig{
			{Algos: []string{"DA", "PaRan1", "PaRan2"}, Adversary: "fair",
				Ps: []int{1024, 4096}, Ts: []int{1 << 16, 1 << 18}, Ds: []int64{1, 8, 64}},
			{Algos: []string{"PaDet"}, Adversary: "fair",
				Ps: []int{64, 128}, Ts: []int{1 << 14}, Ds: []int64{8}},
		},
		warm: []doall.SweepConfig{
			{Algos: []string{"DA", "PaRan1", "PaRan2"}, Adversary: "fair",
				Ps: []int{256}, Ts: []int{1 << 12}, Ds: []int64{8}},
			{Algos: []string{"PaDet"}, Adversary: "fair",
				Ps: []int{16}, Ts: []int{1 << 10}, Ds: []int64{8}},
		},
	}
}

// adversarialGrid stresses per-recipient delay events, rejoin rebases,
// omission bookkeeping, adaptive scheduling and the eager inbox path;
// construction is a small share and the sharded tick is never entered.
func adversarialGrid() gridWorkload {
	advs := []string{"random", "crashing", "restarting", "omitting(fair)", "slow-set(fair)", "stage-online"}
	return gridWorkload{
		grids: []doall.SweepConfig{
			{Algos: []string{"DA", "PaRan2"}, Adversaries: advs,
				Ps: []int{256, 1024}, Ts: []int{1 << 16}, Ds: []int64{8}},
			{Algos: []string{"DA"}, Adversaries: []string{"stage-det"},
				Ps: []int{256, 1024}, Ts: []int{1 << 16}, Ds: []int64{8}},
		},
		// p=256, t=2^12: big enough (about 0.1 s) that scheduling jitter
		// does not dominate the set-up time.
		warm: []doall.SweepConfig{
			{Algos: []string{"DA", "PaRan2"}, Adversaries: advs,
				Ps: []int{256}, Ts: []int{1 << 12}, Ds: []int64{8}},
			{Algos: []string{"DA"}, Adversaries: []string{"stage-det"},
				Ps: []int{256}, Ts: []int{1 << 12}, Ds: []int64{8}},
		},
	}
}

// cells enumerates the grid as scenarios with seeds derived from seed.
func (w gridWorkload) cells(seed int64) []doall.Scenario {
	var out []doall.Scenario
	for _, g := range w.grids {
		g.BaseSeed, g.Shards = seed, doall.ShardsAuto
		out = append(out, g.Specs()...)
	}
	return out
}

// sweepSample is one timed one-cell sweep.
type sweepSample struct {
	idx  int
	wall time.Duration
	cell doall.SweepCell
}

// sweepPasses runs whole passes over cells through RunSweepContext: at
// least one, and another only while the mean pass so far predicts it
// ends within dur. It returns the samples and the time spent inside the
// one-cell sweeps.
func sweepPasses(ctx context.Context, cells []doall.Scenario, seed int64, dur time.Duration) ([]sweepSample, time.Duration, error) {
	var out []sweepSample
	var busy time.Duration
	start := time.Now()
	for passes := 1; ; passes++ {
		for i, sc := range cells {
			settleHeap()
			t0 := time.Now()
			got, err := doall.RunSweepContext(ctx, oneCell(sc, seed))
			wall := time.Since(t0)
			busy += wall
			if err != nil {
				return out, busy, err
			}
			if len(got) != 1 || got[0].Seed != sc.Seed {
				return out, busy, fmt.Errorf("%s: one-cell sweep returned %d cells / another seed", cellName(sc), len(got))
			}
			out = append(out, sweepSample{i, wall, got[0]})
		}
		if el := time.Since(start); el+el/time.Duration(passes) > dur {
			return out, busy, nil
		}
	}
}

// settleHeap collects the previous cell's garbage before the next cell
// starts, outside its timing, so a cell's time does not depend on which
// cell ran before it or on where the collector's pacing happened to fall.
func settleHeap() { runtime.GC() }

// directPass runs every cell once, directly, on a fresh engine per cell.
func directPass(ctx context.Context, cells []doall.Scenario, probe bool) ([]cellRun, error) {
	runs := make([]cellRun, len(cells))
	for i, sc := range cells {
		if err := ctx.Err(); err != nil {
			return runs, err
		}
		settleHeap()
		r, err := runCell(nil, sc, probe)
		if err != nil {
			return runs, err
		}
		runs[i] = r
	}
	return runs, nil
}

// warmSetup times the workload's set-up: engine creation plus one
// warm-up pass through RunSweepContext.
func warmSetup(ctx context.Context, warm []doall.SweepConfig, seed int64) (time.Duration, error) {
	t0 := time.Now()
	for _, c := range warm {
		c.BaseSeed, c.Workers, c.Shards = seed, 1, doall.ShardsAuto
		got, err := doall.RunSweepContext(ctx, c)
		if err != nil {
			return 0, err
		}
		for _, cell := range got {
			if cell.Err != "" {
				return 0, fmt.Errorf("warm-up cell %s/%s: %s", cell.Algo, cell.Adversary, cell.Err)
			}
		}
	}
	return time.Since(t0), nil
}

// runGrid measures a grid workload. Untraced, it reports the end-to-end
// metrics; traced, it splits the time between an untraced and a traced
// segment and reports per-layer metrics.
func runGrid(ctx context.Context, w gridWorkload, o options) (outcome, error) {
	cells := w.cells(o.seed)
	var gate []doall.SweepConfig
	for _, g := range w.grids {
		g.Workers = 1
		gate = append(gate, g)
	}
	if err := memoryGate(gate); err != nil {
		return outcome{}, err
	}
	var out outcome
	setup, err := medianSetup(func() (time.Duration, error) { return warmSetup(ctx, w.warm, o.seed) })
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}

	dur := o.seconds
	if o.trace {
		dur /= 2
	}
	samples, busy, err := sweepPasses(ctx, cells, o.seed, dur)
	out.attempted += len(samples)
	if err != nil {
		return out, fmt.Errorf("timed passes: %w", err)
	}
	untracedRate := float64(len(samples)) / busy.Seconds()

	var direct []cellRun
	if o.trace {
		out.tracer = newTracer()
		var traced []cellRun
		start := time.Now()
		for passes := 0; passes == 0 || time.Since(start)*time.Duration(passes+1)/time.Duration(passes) <= dur; passes++ {
			runs, err := directPass(ctx, cells, false)
			if err != nil {
				out.failed++
				return out, fmt.Errorf("traced pass: %w", err)
			}
			for _, r := range runs {
				r.record(out.tracer, len(traced))
				traced = append(traced, r)
			}
		}
		var tracedBusy time.Duration
		for _, r := range traced {
			tracedBusy += r.wall()
		}
		out.attempted += len(traced)
		if direct, err = directPass(ctx, cells, true); err != nil {
			out.failed++
			return out, fmt.Errorf("memory probe pass: %w", err)
		}
		for i, r := range traced {
			if r.counts != direct[i%len(cells)].counts {
				out.failed++
			}
		}
		out.values = layerMetrics(out.tracer, traced, direct)
		out.values["peak_rss_mb"] = peakRSSMiB()
		out.values["trace.overhead_ratio"] = float64(len(traced)) / tracedBusy.Seconds() / untracedRate
	} else if direct, err = directPass(ctx, cells, false); err != nil {
		out.failed++
		return out, fmt.Errorf("verification pass: %w", err)
	}

	var steps int64
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
		steps += direct[s.idx].counts.steps
		if !sameModel(s.cell, direct[s.idx].counts) {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("%s: sweep cell %+v disagrees with direct run %+v", cellName(cells[s.idx]), s.cell, direct[s.idx].counts))
		}
	}
	if !o.trace {
		p50, p90 := quantile(walls, 0.5), quantile(walls, 0.9)
		out.values = map[string]float64{
			"setup_s":     setup.Seconds(),
			"cells_per_s": untracedRate,
			"steps_per_s": float64(steps) / busy.Seconds(),
			"cell_s.p50":  p50,
			"cell_s.p90":  p90,
			// A closed loop's job is one cell, due when the previous one returned.
			"job_s.p50": p50,
			"job_s.p90": p90,
		}
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics of a grid or daemon run from
// its traced cells and one probe run per unique cell.
func layerMetrics(tr *tracer, traced, probe []cellRun) map[string]float64 {
	self, count := tr.selfTimes()
	n := count["cell"]
	rest, _ := tr.unattributedUnder("cell")
	v := map[string]float64{
		"core.build_s":         mean(self["scenario.machines"].Seconds(), n),
		"adversary.build_s":    mean(self["scenario.adversary"].Seconds(), n),
		"sim.run_s":            mean(self["sim.run"].Seconds(), n),
		"trace.unattributed_s": mean(rest.Seconds(), n),
	}
	byAlgo := map[string]float64{}
	algoN := map[string]int{}
	var run, a1, a2, b time.Duration
	var steps, msgs, ticks, cycles int64
	var alloc, buildAlloc uint64
	var pause float64
	for _, c := range traced {
		byAlgo[c.sc.Algorithm] += c.buildTime().Seconds()
		algoN[c.sc.Algorithm]++
		run += c.runTime()
		a1, a2, b, ticks = a1+c.a1, a2+c.a2, b+c.b, ticks+c.ticks
		steps += c.counts.steps
		msgs += c.counts.totalMessages
		alloc += c.gc.allocBytes
		buildAlloc += c.buildAlloc
		cycles += int64(c.gc.cycles)
		pause += c.gc.pause
	}
	for _, a := range []string{"DA", "PaRan1", "PaRan2", "PaDet"} {
		v["core.build_s."+a] = mean(byAlgo[a], algoN[a])
	}
	k := len(traced)
	v["core.build_alloc_mb"] = mean(float64(buildAlloc)/(1<<20), k)
	v["sim.ns_per_step"] = ratio(float64(run.Nanoseconds()), float64(steps))
	v["sim.ns_per_message"] = ratio(float64(run.Nanoseconds()), float64(msgs))
	v["sim.phase_a1_s"] = mean(a1.Seconds(), k)
	v["sim.phase_a2_s"] = mean(a2.Seconds(), k)
	v["sim.phase_b_s"] = mean(b.Seconds(), k)
	v["sim.parallel_ticks"] = mean(float64(ticks), k)
	v["sim.serial_share"] = ratio((a1 + b).Seconds(), (a1 + a2 + b).Seconds())
	v["gc.alloc_mb"] = mean(float64(alloc)/(1<<20), k)
	v["gc.cycles"] = mean(float64(cycles), k)
	v["gc.pause_s"] = mean(pause, k)

	// Model counts: one run per unique cell, so they repeat exactly.
	var total counts
	var overLB float64
	minR, maxR := 0.0, 0.0
	for i, c := range probe {
		total.steps += c.counts.steps
		total.totalMessages += c.counts.totalMessages
		total.messages += c.counts.messages
		total.bytes += c.counts.bytes
		total.primary += c.counts.primary
		total.executions += c.counts.executions
		lower, _, _ := doall.TheoryBounds(c.sc.P, c.sc.T, int(c.sc.D), 0.5)
		overLB += ratio(float64(c.counts.work), lower)
		r := ratio(float64(c.estimate), float64(c.peakHeap))
		if i == 0 || r < minR {
			minR = r
		}
		if i == 0 || r > maxR {
			maxR = r
		}
	}
	v["sim.steps"] = float64(total.steps)
	v["sim.messages"] = float64(total.totalMessages)
	v["sim.bytes_per_message"] = ratio(float64(total.bytes), float64(total.messages))
	v["sim.useful_ratio"] = ratio(float64(total.primary), float64(total.executions))
	v["bounds.work_over_lb"] = mean(overLB, len(probe))
	v["scenario.estimate_over_peak.min"] = minR
	v["scenario.estimate_over_peak.max"] = maxR
	return v
}

package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"doall/internal/scenario"
	"doall/internal/sim"
)

// Service metrics, exposed at GET /metrics in the Prometheus text
// exposition format. Two layers feed it:
//
//   - Service-level counters and gauges (jobs, cells, queue depth, engine
//     fleet occupancy) maintained by the scheduler itself.
//   - Simulation-level counters (steps, sends, message copies, faults,
//     solved runs) folded once per cell from the counts the engine already
//     keeps in sim.Result (summed over the cell's trials as a
//     scenario.Tally), plus the cell's parallel-tick phase-time delta.
//     Workers attach no sim.Observer: the counts are already in the
//     Result, and hook calls would only add per-event cost to every cell.
type metrics struct {
	start time.Time

	jobsSubmitted  atomic.Int64
	cellsCompleted atomic.Int64
	cellsFailed    atomic.Int64
	// enginesInflight counts workers currently inside a cell simulation
	// (= busy engines; the fleet size is the pool bound).
	enginesInflight atomic.Int64
	// shardsInflight counts tick-shard goroutines the busy engines fan
	// out across (the resolved Shards of every in-flight cell summed) —
	// the fleet's true CPU occupancy once intra-run parallelism is on.
	// Equals enginesInflight while every cell runs sequentially.
	shardsInflight atomic.Int64
	// twinPredicts/twinFallbacks split POST /v1/predict answers by how
	// they were produced: analytical twin evaluation vs one real bounded
	// simulation.
	twinPredicts  atomic.Int64
	twinFallbacks atomic.Int64

	// buckets is a ring of per-second cell-completion counts behind the
	// doalld_cells_per_second gauge (rate over the trailing window).
	buckets [rateRing]rateBucket

	sim simCounters
}

const (
	rateRing   = 16 // ring slots; must exceed rateWindow+1
	rateWindow = 10 // seconds the cells/sec gauge averages over
)

type rateBucket struct {
	sec atomic.Int64 // unix second this slot currently counts
	n   atomic.Int64
}

// simCounters holds the simulation-level counters. Workers fold into
// them once per cell, so contention is negligible and one shared set
// serves the whole fleet.
type simCounters struct {
	steps      atomic.Int64
	multicasts atomic.Int64
	messages   atomic.Int64
	crashes    atomic.Int64
	revivals   atomic.Int64
	omissions  atomic.Int64
	solved     atomic.Int64
	// Parallel-tick phase nanoseconds and tick count, harvested as
	// per-cell deltas of the worker engine's PhaseProfile (the profile
	// itself is monotone over the engine's lifetime).
	phaseA1Ns atomic.Int64
	phaseA2Ns atomic.Int64
	phaseBNs  atomic.Int64
	parTicks  atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// cellDone records one completed cell into the totals and the rate ring.
func (m *metrics) cellDone(failed bool) {
	m.cellsCompleted.Add(1)
	if failed {
		m.cellsFailed.Add(1)
	}
	sec := time.Now().Unix()
	b := &m.buckets[sec%rateRing]
	if b.sec.Load() != sec {
		// A stale slot is recycled for the current second. The store pair
		// races benignly with concurrent completions in the same second —
		// at worst a handful of counts land in a slot about to be reset,
		// biasing a 10s average by a fraction of a second.
		b.sec.Store(sec)
		b.n.Store(0)
	}
	b.n.Add(1)
}

// rate returns cells/sec averaged over the trailing window.
func (m *metrics) rate() float64 {
	now := time.Now().Unix()
	var sum int64
	for i := range m.buckets {
		b := &m.buckets[i]
		if s := b.sec.Load(); s > now-rateWindow && s <= now {
			sum += b.n.Load()
		}
	}
	return float64(sum) / rateWindow
}

// simDone folds one cell's summed run counts and parallel-tick
// phase-time delta into the simulation counters.
func (m *metrics) simDone(t scenario.Tally, d sim.TickPhaseProfile) {
	c := &m.sim
	c.steps.Add(t.Steps)
	c.multicasts.Add(t.Multicasts)
	c.messages.Add(t.Messages)
	c.crashes.Add(t.Crashes)
	c.revivals.Add(t.Revivals)
	c.omissions.Add(t.Omissions)
	c.solved.Add(t.Solved)
	c.phaseA1Ns.Add(int64(d.A1))
	c.phaseA2Ns.Add(int64(d.A2))
	c.phaseBNs.Add(int64(d.B))
	c.parTicks.Add(d.Ticks)
}

// gauges is the scheduler-state snapshot the scrape takes under the
// service lock.
type gauges struct {
	queueDepth  int
	jobsByState map[JobState]int
	workers     int
	draining    bool
}

// write renders the exposition text. Counter names follow the
// <namespace>_<unit>_total convention; gauges are instantaneous.
func (m *metrics) write(w io.Writer, g gauges) {
	c := &m.sim
	busy := m.enginesInflight.Load()

	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP doalld_up Whether the daemon is serving (1) or draining (0).\n# TYPE doalld_up gauge\n")
	up := 1
	if g.draining {
		up = 0
	}
	p("doalld_up %d\n", up)
	p("# HELP doalld_uptime_seconds Seconds since the daemon started.\n# TYPE doalld_uptime_seconds gauge\n")
	p("doalld_uptime_seconds %.0f\n", time.Since(m.start).Seconds())

	p("# HELP doalld_jobs_submitted_total Jobs admitted since start (excludes checkpoint-replayed jobs).\n# TYPE doalld_jobs_submitted_total counter\n")
	p("doalld_jobs_submitted_total %d\n", m.jobsSubmitted.Load())
	p("# HELP doalld_jobs Jobs currently known, by state.\n# TYPE doalld_jobs gauge\n")
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		p("doalld_jobs{state=%q} %d\n", st, g.jobsByState[st])
	}
	p("# HELP doalld_queue_depth Jobs waiting for the engine fleet.\n# TYPE doalld_queue_depth gauge\n")
	p("doalld_queue_depth %d\n", g.queueDepth)

	p("# HELP doalld_cells_completed_total Sweep/scenario cells completed.\n# TYPE doalld_cells_completed_total counter\n")
	p("doalld_cells_completed_total %d\n", m.cellsCompleted.Load())
	p("# HELP doalld_cells_failed_total Completed cells that carry a per-cell error.\n# TYPE doalld_cells_failed_total counter\n")
	p("doalld_cells_failed_total %d\n", m.cellsFailed.Load())
	p("# HELP doalld_cells_per_second Cell completion rate over the trailing %ds.\n# TYPE doalld_cells_per_second gauge\n", rateWindow)
	p("doalld_cells_per_second %.2f\n", m.rate())

	p("# HELP doalld_twin_predictions_total Predict queries answered, by mode: twin = analytical model evaluation, fallback = one real bounded simulation (no twin, unknown model, out of envelope, or band too wide).\n# TYPE doalld_twin_predictions_total counter\n")
	p("doalld_twin_predictions_total{mode=\"twin\"} %d\n", m.twinPredicts.Load())
	p("doalld_twin_predictions_total{mode=\"fallback\"} %d\n", m.twinFallbacks.Load())

	p("# HELP doalld_engine_pool_size Reusable simulation engines in the worker fleet.\n# TYPE doalld_engine_pool_size gauge\n")
	p("doalld_engine_pool_size %d\n", g.workers)
	p("# HELP doalld_engines_inflight Engines currently executing a cell (pool occupancy).\n# TYPE doalld_engines_inflight gauge\n")
	p("doalld_engines_inflight %d\n", busy)
	p("# HELP doalld_shard_threads_inflight Tick-shard goroutines across busy engines (resolved intra-run shards summed; CPU occupancy under sharding).\n# TYPE doalld_shard_threads_inflight gauge\n")
	p("doalld_shard_threads_inflight %d\n", m.shardsInflight.Load())

	p("# HELP doalld_tick_phase_seconds Wall-clock seconds the fleet's parallel tick engines spent per phase: a1 = serial prefix (schedule filter, cache-build plan and fan-out, shadow seeding), a2 = parallel shard stepping, b = serial tail (staged-reduction merge plus ordered residue).\n# TYPE doalld_tick_phase_seconds counter\n")
	p("doalld_tick_phase_seconds{phase=\"a1\"} %.6f\n", float64(c.phaseA1Ns.Load())/1e9)
	p("doalld_tick_phase_seconds{phase=\"a2\"} %.6f\n", float64(c.phaseA2Ns.Load())/1e9)
	p("doalld_tick_phase_seconds{phase=\"b\"} %.6f\n", float64(c.phaseBNs.Load())/1e9)
	p("# HELP doalld_tick_parallel_ticks_total Time units executed by the parallel tick engine (sequential-fallback ticks excluded).\n# TYPE doalld_tick_parallel_ticks_total counter\n")
	p("doalld_tick_parallel_ticks_total %d\n", c.parTicks.Load())

	p("# HELP doalld_sim_steps_total Machine steps executed across all cell runs.\n# TYPE doalld_sim_steps_total counter\n")
	p("doalld_sim_steps_total %d\n", c.steps.Load())
	p("# HELP doalld_sim_multicasts_total Broadcasts issued, one per multicast step.\n# TYPE doalld_sim_multicasts_total counter\n")
	p("doalld_sim_multicasts_total %d\n", c.multicasts.Load())
	p("# HELP doalld_sim_messages_total Point-to-point message copies charged to senders, omitted copies included.\n# TYPE doalld_sim_messages_total counter\n")
	p("doalld_sim_messages_total %d\n", c.messages.Load())
	p("# HELP doalld_sim_crashes_total Adversary crash events.\n# TYPE doalld_sim_crashes_total counter\n")
	p("doalld_sim_crashes_total %d\n", c.crashes.Load())
	p("# HELP doalld_sim_revivals_total Crash-restart revivals.\n# TYPE doalld_sim_revivals_total counter\n")
	p("doalld_sim_revivals_total %d\n", c.revivals.Load())
	p("# HELP doalld_sim_omissions_total Message copies omitted by the adversary (charged, never delivered).\n# TYPE doalld_sim_omissions_total counter\n")
	p("doalld_sim_omissions_total %d\n", c.omissions.Load())
	p("# HELP doalld_sim_solved_total Runs that reached the solved instant.\n# TYPE doalld_sim_solved_total counter\n")
	p("doalld_sim_solved_total %d\n", c.solved.Load())
}

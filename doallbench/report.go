package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract: BENCHMARK.json lists the same
// names with the same units, and every run prints every metric of its
// kind (end-to-end for untraced runs, per-layer for traced runs).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. On the grids a job is one cell, so job_s equals cell_s
// there; on daemon-mix cell_s is the daemon's own per-cell wall time
// (ns_per_run).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"steps_per_s", "1/s"},
	{"cell_s.p50", "s"},
	{"cell_s.p90", "s"},
	{"job_s.p50", "s"},
	{"job_s.p90", "s"},
}

// perLayer are the metrics of single layers, taken from the traced run.
// A metric that does not apply to a workload (service.* on a grid,
// core.build_s.PaRan1 on adversarial-grid) is reported as 0.
var perLayer = []metricDef{
	{"core.build_s", "s"},
	{"core.build_s.DA", "s"},
	{"core.build_s.PaRan1", "s"},
	{"core.build_s.PaRan2", "s"},
	{"core.build_s.PaDet", "s"},
	{"core.build_alloc_mb", "MiB"},
	{"adversary.build_s", "s"},
	{"sim.run_s", "s"},
	{"sim.ns_per_step", "ns"},
	{"sim.ns_per_message", "ns"},
	{"sim.phase_a1_s", "s"},
	{"sim.phase_a2_s", "s"},
	{"sim.phase_b_s", "s"},
	{"sim.parallel_ticks", "count"},
	{"sim.serial_share", "1"},
	{"sim.steps", "count"},
	{"sim.messages", "count"},
	{"sim.bytes_per_message", "B"},
	{"sim.useful_ratio", "1"},
	{"bounds.work_over_lb", "1"},
	{"gc.alloc_mb", "MiB"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"scenario.estimate_over_peak.min", "1"},
	{"scenario.estimate_over_peak.max", "1"},
	{"service.submit_s.p50", "s"},
	{"service.queue_s.p50", "s"},
	{"service.queue_s.p90", "s"},
	{"service.run_s.p50", "s"},
	{"service.stream_s.p50", "s"},
	{"service.cell_over_direct", "1"},
	{"service.fleet_busy_ratio", "1"},
	{"service.checkpoint_bytes_per_cell", "B"},
	{"trace.overhead_ratio", "1"},
	{"trace.unattributed_s", "s"},
	{"failed_ratio", "1"},
	{"peak_rss_mb", "MiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line: the last line of standard
// output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport builds the result line from a workload's measured values.
// Every metric of the run's catalogue is present; a per-layer metric the
// workload did not measure reads 0. A value outside the catalogue, or a
// missing end-to-end value, is a bug in the benchmark and panics.
func newReport(traced bool, values map[string]float64, attempted, failed int, correct bool) report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := report{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := values[d.Name]
		if !ok && !traced {
			panic(fmt.Sprintf("doallbench: end-to-end metric %s not measured", d.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !known[name] {
			panic(fmt.Sprintf("doallbench: metric %s is not in the catalogue", name))
		}
	}
	return r
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"doall"
)

// Tiny shapes of each workload kind: they run in well under a second and
// a few MiB, so the benchmark's own tests stay cheap.

func tinyGrid() gridWorkload {
	return gridWorkload{
		grids: []doall.SweepConfig{
			{Algos: []string{"DA", "PaRan1", "PaRan2"}, Adversaries: []string{"fair", "crashing"},
				Ps: []int{32}, Ts: []int{256}, Ds: []int64{1, 4}},
			{Algos: []string{"PaDet"}, Adversary: "fair", Ps: []int{8}, Ts: []int{64}, Ds: []int64{2}},
		},
		warm: []doall.SweepConfig{{Algos: []string{"DA"}, Ps: []int{16}, Ts: []int{64}, Ds: []int64{2}}},
	}
}

func tinyDaemon() daemonWorkload {
	return daemonWorkload{
		kinds: []doall.SweepConfig{
			{Algos: []string{"DA", "PaRan1"}, Adversaries: []string{"fair", "crashing"},
				Ps: []int{32}, Ts: []int{256}, Ds: []int64{4}},
		},
		sweep:      doall.SweepSpec{Algos: []string{"DA"}, Ps: []int{16}, Ts: []int{64}, Ds: []int64{1, 2}},
		sweepEvery: 3,
		warm:       doall.SweepSpec{Algos: []string{"DA"}, Ps: []int{16}, Ts: []int{64}, Ds: []int64{2}},
	}
}

func tinyOptions(trace bool) options {
	return options{seed: 7, seconds: 200 * time.Millisecond, trace: trace}
}

// modelCounts are the per-layer metrics that must repeat exactly for a
// seed.
var modelCounts = []string{"sim.steps", "sim.messages", "sim.bytes_per_message", "sim.useful_ratio", "bounds.work_over_lb"}

// checkReport asserts the result line carries exactly the catalogue's
// metrics with their units, that the run passed the correctness gate,
// and that every metric in nonzero was measured as non-zero.
func checkReport(t *testing.T, out outcome, traced bool, nonzero []string) report {
	t.Helper()
	if traced {
		out.values["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	}
	rep := newReport(traced, out.values, out.attempted, out.failed, true)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("run not correct: attempted=%d failed=%d notes=%v", rep.Attempted, rep.Failed, out.notes)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
	for _, name := range nonzero {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	return rep
}

// checkSelfTimes asserts every root span's children, including the
// unattributed remainder, add up to the root's wall time.
func checkSelfTimes(t *testing.T, tr *tracer, root string) {
	t.Helper()
	sum := map[int]int64{}
	roots := 0
	for _, s := range tr.spans {
		if s.Parent > 0 {
			sum[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range tr.spans {
		if s.Parent == 0 && s.Name == root {
			roots++
			if got := sum[s.ID]; got != s.End-s.Start {
				t.Errorf("%s %d: children sum to %d ns, wall is %d ns", root, s.Trace, got, s.End-s.Start)
			}
		}
	}
	if roots == 0 {
		t.Errorf("no %s spans recorded", root)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []entry
		defs   []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.Name || c.listed[i].Unit != d.Unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], the benchmark reports %s [%s]", i, c.listed[i].Name, c.listed[i].Unit, d.Name, d.Unit)
			}
		}
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not know", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", name)
		}
	}
}

func TestReproducesBench2(t *testing.T) {
	if err := reproduceBench2(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestTinyGrid(t *testing.T) {
	ctx := context.Background()
	out, err := runGrid(ctx, tinyGrid(), tinyOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, out, false, []string{"setup_s", "cells_per_s", "steps_per_s", "cell_s.p50", "cell_s.p90"})

	var counts [2]map[string]metric
	for i := range counts {
		out, err := runGrid(ctx, tinyGrid(), tinyOptions(true))
		if err != nil {
			t.Fatal(err)
		}
		checkSelfTimes(t, out.tracer, "cell")
		rep := checkReport(t, out, true, append([]string{"core.build_s", "core.build_s.PaDet", "sim.run_s", "sim.ns_per_step",
			"gc.alloc_mb", "scenario.estimate_over_peak.max", "trace.overhead_ratio", "peak_rss_mb"}, modelCounts...))
		counts[i] = rep.Metrics
	}
	for _, name := range modelCounts {
		if counts[0][name] != counts[1][name] {
			t.Errorf("%s differs between runs of one seed: %v vs %v", name, counts[0][name], counts[1][name])
		}
	}
}

func TestTinyDaemon(t *testing.T) {
	ctx := context.Background()
	out, err := runDaemon(ctx, tinyDaemon(), tinyOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, out, false, []string{"setup_s", "cells_per_s", "steps_per_s", "cell_s.p50", "job_s.p50", "job_s.p90"})

	var counts [2]map[string]metric
	for i := range counts {
		out, err := runDaemon(ctx, tinyDaemon(), tinyOptions(true))
		if err != nil {
			t.Fatal(err)
		}
		checkSelfTimes(t, out.tracer, "job")
		checkSelfTimes(t, out.tracer, "cell")
		rep := checkReport(t, out, true, append([]string{"service.submit_s.p50", "service.cell_over_direct",
			"service.fleet_busy_ratio", "service.checkpoint_bytes_per_cell", "trace.overhead_ratio", "peak_rss_mb"}, modelCounts...))
		counts[i] = rep.Metrics
	}
	for _, name := range modelCounts {
		if counts[0][name] != counts[1][name] {
			t.Errorf("%s differs between runs of one seed: %v vs %v", name, counts[0][name], counts[1][name])
		}
	}
}

// TestCheckResultRejects shows the correctness gate catches each kind of
// inconsistent Result.
func TestCheckResultRejects(t *testing.T) {
	sc := doall.Scenario{Algorithm: "DA", P: 16, T: 128, D: 2, Seed: 3}.WithDefaults()
	res, err := doall.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(sc, res.Sim); err != nil {
		t.Fatalf("a correct run fails the gate: %v", err)
	}
	for name, mutate := range map[string]func(r *doall.Result){
		"unsolved":         func(r *doall.Result) { r.Solved = false },
		"halted early":     func(r *doall.Result) { r.HaltedEarly = true },
		"task after solve": func(r *doall.Result) { r.FirstDoneAt[5] = r.SolvedAt + 1 },
		"task never done":  func(r *doall.Result) { r.FirstDoneAt[5] = -1 },
		"per-proc work":    func(r *doall.Result) { r.PerProcWork[0]++ },
		"work > steps":     func(r *doall.Result) { r.Work = r.TotalSteps + 1 },
		"messages > total": func(r *doall.Result) { r.Messages = r.TotalMessages + 1 },
		"executions split": func(r *doall.Result) { r.PrimaryExecutions++ },
		"too few executions": func(r *doall.Result) {
			r.TaskExecutions, r.PrimaryExecutions, r.SecondaryExecutions = 1, 1, 0
		},
	} {
		r := *res.Sim
		r.FirstDoneAt = append([]int64(nil), res.Sim.FirstDoneAt...)
		r.PerProcWork = append([]int64(nil), res.Sim.PerProcWork...)
		mutate(&r)
		if checkResult(sc, &r) == nil {
			t.Errorf("%s: the gate accepted an inconsistent result", name)
		}
	}
}

// TestJobChildrenPartitionTheJob shows the job's child spans never
// overlap and cover sent..received even when the daemon's millisecond
// timestamps fall outside the client's interval.
func TestJobChildrenPartitionTheJob(t *testing.T) {
	base := time.UnixMilli(1_700_000_000_000)
	r := jobRec{
		due: base, sent: base.Add(time.Millisecond), submitted: base.Add(3 * time.Millisecond),
		received: base.Add(9 * time.Millisecond),
		status:   doall.JobStatus{StartedMS: base.UnixMilli() + 2, FinishedMS: base.UnixMilli() + 12},
	}
	ch := jobChildren(r)
	var sum time.Duration
	for i, c := range ch {
		if c.end.Before(c.start) || i > 0 && !c.start.Equal(ch[i-1].end) {
			t.Fatalf("child %s [%v, %v] overlaps or leaves a gap", c.name, c.start, c.end)
		}
		sum += c.end.Sub(c.start)
	}
	if sum != r.received.Sub(r.sent) {
		t.Errorf("children cover %v, want %v", sum, r.received.Sub(r.sent))
	}
}

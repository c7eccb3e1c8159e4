// Command doallbench is the doall repository's benchmark. It drives the
// simulator the way users do — sweep cells through doall.RunSweepContext,
// daemon jobs through doall.NewService and doall.ServiceClient — checks
// every result, and prints one JSON line: end-to-end metrics when
// untraced, per-layer metrics (from spans kept in memory and written to
// .bench_build/trace/) when traced.
//
// Build and run it from the repository root:
//
//	bash doallbench/run.sh --workload fair-grid --seed 1 --seconds 25 --trace 0
//
// Workloads: fair-grid, adversarial-grid, daemon-mix. The process exits
// non-zero, after printing the result line with "correct": false, when
// any cell or job fails the correctness gate; it exits non-zero without
// a result line when the memory gate refuses the workload or set-up
// fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"doall"
)

// runBudget bounds one run's wall time. Past it the run is aborted and
// reported as failed; a run that does not stop within watchdogGrace more
// is killed.
const (
	runBudget     = 160 * time.Second
	watchdogGrace = 10 * time.Second
	setupReps     = 5
	traceDir      = ".bench_build/trace"
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload measured.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	notes             []string
	tracer            *tracer
}

func main() {
	workload := flag.String("workload", "", "fair-grid, adversarial-grid or daemon-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	o := options{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1}
	if *trace != 0 && *trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "doallbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runBudget+watchdogGrace, func() {
		fmt.Fprintf(os.Stderr, "doallbench: run did not stop within %s; aborting\n", runBudget+watchdogGrace)
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	os.Exit(run(ctx, *workload, o))
}

// run measures one workload and prints its result; it returns the exit
// code.
func run(ctx context.Context, workload string, o options) int {
	env := stampEnv(workload, o)
	out, err := measure(ctx, workload, o)
	envLine, _ := json.Marshal(map[string]envStamp{"env": env})
	fmt.Println(string(envLine))
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "doallbench:", n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "doallbench:", err)
		if out.values == nil {
			return 1
		}
	}
	if out.tracer != nil {
		if path, err := out.tracer.write(traceDir, env); err != nil {
			fmt.Fprintln(os.Stderr, "doallbench: writing trace:", err)
		} else {
			fmt.Fprintln(os.Stderr, "doallbench: trace written to", path)
		}
		out.values["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	}
	rep := newReport(o.trace, out.values, out.attempted, out.failed, err == nil)
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to the function measuring it.
var workloads = map[string]func(context.Context, options) (outcome, error){
	"fair-grid":        func(ctx context.Context, o options) (outcome, error) { return runGrid(ctx, fairGrid(), o) },
	"adversarial-grid": func(ctx context.Context, o options) (outcome, error) { return runGrid(ctx, adversarialGrid(), o) },
	"daemon-mix":       func(ctx context.Context, o options) (outcome, error) { return runDaemon(ctx, daemonMix(), o) },
}

// measure runs the correctness preflight and then the named workload.
func measure(ctx context.Context, workload string, o options) (outcome, error) {
	run, ok := workloads[workload]
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q (want fair-grid, adversarial-grid or daemon-mix)", workload)
	}
	if err := reproduceBench2(ctx); err != nil {
		return outcome{}, err
	}
	return run(ctx, o)
}

// bench2 are the DA/fair cells recorded in BENCH_2.json (base seed 0,
// 3 trials) that every run reproduces exactly before timing anything.
var bench2 = []doall.SweepCell{
	{Algo: "DA", P: 1024, T: 65536, D: 1, Seed: 6063818019111245085, Work: 76800, Messages: 1047552, SolvedAt: 74},
	{Algo: "DA", P: 1024, T: 65536, D: 8, Seed: 4588523844468424761, Work: 83968, Messages: 1047552, SolvedAt: 81},
}

func reproduceBench2(ctx context.Context) error {
	got, err := doall.RunSweepContext(ctx, doall.SweepConfig{
		Algos: []string{"DA"}, Adversary: "fair", Ps: []int{1024}, Ts: []int{65536}, Ds: []int64{1, 8},
		Trials: 3, Workers: 1, Shards: doall.ShardsAuto,
	})
	if err != nil {
		return fmt.Errorf("BENCH_2 reproduction: %w", err)
	}
	for i, want := range bench2 {
		g := got[i]
		if g.Err != "" || g.Seed != want.Seed || g.Work != want.Work || g.Messages != want.Messages || g.SolvedAt != want.SolvedAt {
			return fmt.Errorf("BENCH_2 reproduction: DA p=%d t=%d d=%d got seed=%d work=%v messages=%v solved_at=%v err=%q, recorded seed=%d work=%v messages=%v solved_at=%v",
				g.P, g.T, g.D, g.Seed, g.Work, g.Messages, g.SolvedAt, g.Err, want.Seed, want.Work, want.Messages, want.SolvedAt)
		}
	}
	return nil
}

// medianSetup times set-up setupReps times and returns the median.
func medianSetup(once func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		d, err := once()
		if err != nil {
			return 0, err
		}
		ds[i] = d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// scratchDir makes a fresh directory under .bench_build/tmp for one
// run's files; the caller removes it.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

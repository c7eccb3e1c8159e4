package cli

import (
	"context"
	"fmt"
	"io"

	"doall"
)

// ParseRun parses the run command's flags into the declarative spec:
// either the -spec JSON document verbatim, or the individual flags
// assembled.
func ParseRun(args []string, errw io.Writer) (doall.Scenario, error) {
	fs := newFlagSet("run", errw)
	sc := bindScenario(fs, doall.Scenario{Algorithm: "DA", Adversary: "fair", P: 8, T: 64, D: 1, Q: 2})
	fs.Int64Var(&sc.Seed, "seed", 1, "random seed")
	fs.IntVar(&sc.Trials, "trials", 1, "trials to average over (varies the seed)")
	fs.IntVar(&sc.SearchRestarts, "restarts", 32, "permutation-search restarts")
	shards := fs.String("shards", "1", "intra-run parallel shards: a count, or 'auto' (results are identical at any value)")
	spec := fs.String("spec", "", "JSON Scenario document (overrides the individual flags)")
	if err := fs.Parse(args); err != nil {
		return doall.Scenario{}, err
	}
	if *spec != "" {
		return doall.ParseScenario([]byte(*spec))
	}
	var err error
	sc.Shards, err = parseShards(*shards)
	return *sc, err
}

// runScenario runs one scenario in the deterministic simulator and prints
// the measured work, message, and time complexity next to the paper's
// bounds.
func runScenario(_ context.Context, args []string, w, errw io.Writer) error {
	sc, err := ParseRun(args, errw)
	if err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	sc = sc.WithDefaults()

	if sc.Trials <= 1 {
		res, err := doall.RunScenario(sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "algorithm   %s  (p=%d t=%d d=%d adversary=%s)\n", sc.Algorithm, sc.P, sc.T, sc.D, sc.Adversary)
		if res.Runtime != nil {
			// A -spec document may select the goroutine runtime, which has
			// no exact simulator Result to print.
			rt := res.Runtime
			fmt.Fprintf(w, "backend     runtime (wall-clock observations, not worst cases)\n")
			fmt.Fprintf(w, "steps       %d\n", rt.Steps)
			fmt.Fprintf(w, "messages    %d\n", rt.Messages)
			fmt.Fprintf(w, "executions  %d\n", rt.TaskExecutions)
			fmt.Fprintf(w, "elapsed     %s\n", rt.Elapsed)
			printBounds(w, sc.P, sc.T, int(sc.D), float64(rt.Steps))
			return nil
		}
		r := res.Sim
		fmt.Fprintf(w, "work        %d\n", r.Work)
		fmt.Fprintf(w, "messages    %d\n", r.Messages)
		fmt.Fprintf(w, "time        %d\n", r.SolvedAt)
		fmt.Fprintf(w, "executions  %d (primary %d, secondary %d)\n",
			r.TaskExecutions, r.PrimaryExecutions, r.SecondaryExecutions)
		printBounds(w, sc.P, sc.T, int(sc.D), float64(r.Work))
		return nil
	}

	avg, err := doall.RunScenarioAvg(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "algorithm   %s  (p=%d t=%d d=%d adversary=%s, %d trials)\n",
		sc.Algorithm, sc.P, sc.T, sc.D, sc.Adversary, sc.Trials)
	fmt.Fprintf(w, "E[work]     %.1f\n", avg.Work)
	fmt.Fprintf(w, "E[messages] %.1f\n", avg.Messages)
	fmt.Fprintf(w, "E[time]     %.1f\n", avg.Time)
	printBounds(w, sc.P, sc.T, int(sc.D), avg.Work)
	return nil
}

func printBounds(w io.Writer, p, t, d int, work float64) {
	fmt.Fprintf(w, "---- theory (constants suppressed) ----\n")
	fmt.Fprintf(w, "lower bound Ω   %.0f\n", doall.LowerBound(p, t, d))
	fmt.Fprintf(w, "DA bound (ε=.5) %.0f\n", doall.DAUpperBound(p, t, d, 0.5))
	fmt.Fprintf(w, "PA bound        %.0f\n", doall.PAUpperBound(p, t, d))
	fmt.Fprintf(w, "oblivious p·t   %.0f\n", doall.ObliviousWork(p, t))
	fmt.Fprintf(w, "work/oblivious  %.3f\n", work/doall.ObliviousWork(p, t))
}
